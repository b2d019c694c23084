#include "fft/kernels.hpp"

#include "fft/butterflies.hpp"

/*
 * LR_SIMD_LOOP marks a loop whose iterations are independent and whose
 * memory accesses are unit-stride, so the compiler may vectorize with
 * reassociation. The annotation requires -fopenmp-simd (added by the
 * build when LIGHTRIDGE_SIMD is on); plain auto-vectorization still
 * applies when the pragma is absent.
 */
#if defined(LIGHTRIDGE_SIMD)
#define LR_SIMD_LOOP _Pragma("omp simd")
#else
#define LR_SIMD_LOOP
#endif

namespace lightridge {

bool
simdKernelsCompiled()
{
#if defined(LIGHTRIDGE_SIMD)
    return true;
#else
    return false;
#endif
}

namespace kernels {

void
radix2Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
           std::size_t m)
{
    LR_SIMD_LOOP
    for (std::size_t k = 0; k < m; ++k) {
        Real br = re[m + k], bi = im[m + k];
        Real tr = br * tw_re[k] - bi * tw_im[k];
        Real ti = br * tw_im[k] + bi * tw_re[k];
        Real ar = re[k], ai = im[k];
        re[k] = ar + tr;
        im[k] = ai + ti;
        re[m + k] = ar - tr;
        im[m + k] = ai - ti;
    }
}

void
radix4Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
           std::size_t m)
{
    const Real *t1r = tw_re, *t1i = tw_im;
    const Real *t2r = tw_re + m, *t2i = tw_im + m;
    const Real *t3r = tw_re + 2 * m, *t3i = tw_im + 2 * m;
    LR_SIMD_LOOP
    for (std::size_t k = 0; k < m; ++k) {
        Real a0r = re[k], a0i = im[k];
        Real x1r = re[m + k], x1i = im[m + k];
        Real x2r = re[2 * m + k], x2i = im[2 * m + k];
        Real x3r = re[3 * m + k], x3i = im[3 * m + k];
        Real a1r = x1r * t1r[k] - x1i * t1i[k];
        Real a1i = x1r * t1i[k] + x1i * t1r[k];
        Real a2r = x2r * t2r[k] - x2i * t2i[k];
        Real a2i = x2r * t2i[k] + x2i * t2r[k];
        Real a3r = x3r * t3r[k] - x3i * t3i[k];
        Real a3i = x3r * t3i[k] + x3i * t3r[k];
        // 4-point DFT with W_4 = -j (forward sign convention).
        Real s0r = a0r + a2r, s0i = a0i + a2i;
        Real s1r = a0r - a2r, s1i = a0i - a2i;
        Real s2r = a1r + a3r, s2i = a1i + a3i;
        Real s3r = a1r - a3r, s3i = a1i - a3i;
        re[k] = s0r + s2r;
        im[k] = s0i + s2i;
        re[m + k] = s1r + s3i;
        im[m + k] = s1i - s3r;
        re[2 * m + k] = s0r - s2r;
        im[2 * m + k] = s0i - s2i;
        re[3 * m + k] = s1r - s3i;
        im[3 * m + k] = s1i + s3r;
    }
}

void
radix3Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
           std::size_t m)
{
    const Real *t1r = tw_re, *t1i = tw_im;
    const Real *t2r = tw_re + m, *t2i = tw_im + m;
    LR_SIMD_LOOP
    for (std::size_t k = 0; k < m; ++k) {
        const Real b1r = re[m + k], b1i = im[m + k];
        const Real b2r = re[2 * m + k], b2i = im[2 * m + k];
        Real x0r = re[k], x0i = im[k];
        Real x1r = b1r * t1r[k] - b1i * t1i[k];
        Real x1i = b1r * t1i[k] + b1i * t1r[k];
        Real x2r = b2r * t2r[k] - b2i * t2i[k];
        Real x2i = b2r * t2i[k] + b2i * t2r[k];
        detail::butterfly3(x0r, x0i, x1r, x1i, x2r, x2i);
        re[k] = x0r;
        im[k] = x0i;
        re[m + k] = x1r;
        im[m + k] = x1i;
        re[2 * m + k] = x2r;
        im[2 * m + k] = x2i;
    }
}

void
radix5Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
           std::size_t m)
{
    const Real *t1r = tw_re, *t1i = tw_im;
    const Real *t2r = tw_re + m, *t2i = tw_im + m;
    const Real *t3r = tw_re + 2 * m, *t3i = tw_im + 2 * m;
    const Real *t4r = tw_re + 3 * m, *t4i = tw_im + 3 * m;
    LR_SIMD_LOOP
    for (std::size_t k = 0; k < m; ++k) {
        const Real b1r = re[m + k], b1i = im[m + k];
        const Real b2r = re[2 * m + k], b2i = im[2 * m + k];
        const Real b3r = re[3 * m + k], b3i = im[3 * m + k];
        const Real b4r = re[4 * m + k], b4i = im[4 * m + k];
        Real x0r = re[k], x0i = im[k];
        Real x1r = b1r * t1r[k] - b1i * t1i[k];
        Real x1i = b1r * t1i[k] + b1i * t1r[k];
        Real x2r = b2r * t2r[k] - b2i * t2i[k];
        Real x2i = b2r * t2i[k] + b2i * t2r[k];
        Real x3r = b3r * t3r[k] - b3i * t3i[k];
        Real x3i = b3r * t3i[k] + b3i * t3r[k];
        Real x4r = b4r * t4r[k] - b4i * t4i[k];
        Real x4i = b4r * t4i[k] + b4i * t4r[k];
        detail::butterfly5(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r, x4i);
        re[k] = x0r;
        im[k] = x0i;
        re[m + k] = x1r;
        im[m + k] = x1i;
        re[2 * m + k] = x2r;
        im[2 * m + k] = x2i;
        re[3 * m + k] = x3r;
        im[3 * m + k] = x3i;
        re[4 * m + k] = x4r;
        im[4 * m + k] = x4i;
    }
}

void
cmulSoa(Real *out_re, Real *out_im, const Real *a_re, const Real *a_im,
        const Real *b_re, const Real *b_im, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a_re[i], ai = a_im[i];
        Real br = b_re[i], bi = b_im[i];
        out_re[i] = ar * br - ai * bi;
        out_im[i] = ar * bi + ai * br;
    }
}

void
caxpySoa(Real *y_re, Real *y_im, const Real *x_re, const Real *x_im,
         Real c_re, Real c_im, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real xr = x_re[i], xi = x_im[i];
        y_re[i] += xr * c_re - xi * c_im;
        y_im[i] += xr * c_im + xi * c_re;
    }
}

void
cmulInterleaved(Real *a, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i], ai = a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        a[2 * i] = ar * br - ai * bi;
        a[2 * i + 1] = ar * bi + ai * br;
    }
}

void
cmulConjInterleaved(Real *a, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i], ai = a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        a[2 * i] = ar * br + ai * bi;
        a[2 * i + 1] = ai * br - ar * bi;
    }
}

void
cmulInterleavedOut(Real *dst, const Real *a, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i], ai = a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        dst[2 * i] = ar * br - ai * bi;
        dst[2 * i + 1] = ar * bi + ai * br;
    }
}

void
interleave(const Real *re, const Real *im, Real *dst, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        dst[2 * i] = re[i];
        dst[2 * i + 1] = im[i];
    }
}

void
copySignAlternating(Real *dst, const Real *src, std::size_t n,
                    bool negate_first)
{
    const Real even = negate_first ? Real(-1) : Real(1);
    const Real odd = -even;
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        const Real s = (i % 2 == 0) ? even : odd;
        dst[2 * i] = s * src[2 * i];
        dst[2 * i + 1] = s * src[2 * i + 1];
    }
}

void
scaleSignAlternating(Real *a, Real scale, std::size_t n, bool negate_first)
{
    const Real even = negate_first ? -scale : scale;
    const Real odd = -even;
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        const Real s = (i % 2 == 0) ? even : odd;
        a[2 * i] *= s;
        a[2 * i + 1] *= s;
    }
}

} // namespace kernels
} // namespace lightridge
