#include "fft/kernels.hpp"

#include <type_traits>

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

namespace {

/** r + j*i *= wr + j*wi when Twiddled; a no-op otherwise. */
template <bool Twiddled>
inline void
twiddle(Real &r, Real &i, Real wr, Real wi)
{
    if constexpr (Twiddled) {
        const Real t = r * wr - i * wi;
        i = r * wi + i * wr;
        r = t;
    }
}

/**
 * One butterfly block of a radix-P Stockham pass (P = 2, 3, 4, 5): the
 * P-point DFT of the runs x + t*stride (t < P), written to the runs
 * y + u*block (u < P), output u >= 1 times the twiddle w[u-1] when
 * Twiddled. The twiddles are constant over the block, so they load once
 * outside the vector loop. Block is the run length when it is known at
 * compile time, else 0 and block_n holds it.
 */
template <std::size_t P, bool Twiddled, std::size_t Block>
void
butterflyBlock(const Real *xr, const Real *xi, Real *yr, Real *yi,
               std::size_t stride, std::size_t block_n, const Real *wr,
               const Real *wi)
{
    const std::size_t block = Block ? Block : block_n;
    const Real w1r = Twiddled ? wr[0] : 1, w1i = Twiddled ? wi[0] : 0;
    const Real w2r = Twiddled && P > 2 ? wr[1] : 1;
    const Real w2i = Twiddled && P > 2 ? wi[1] : 0;
    const Real w3r = Twiddled && P > 3 ? wr[2] : 1;
    const Real w3i = Twiddled && P > 3 ? wi[2] : 0;
    const Real w4r = Twiddled && P > 4 ? wr[3] : 1;
    const Real w4i = Twiddled && P > 4 ? wi[3] : 0;
    if constexpr (P == 2) {
        LR_SIMD_LOOP
        for (std::size_t k = 0; k < block; ++k) {
            const Real ar = xr[k], ai = xi[k];
            const Real br = xr[stride + k], bi = xi[stride + k];
            Real y1r = ar - br, y1i = ai - bi;
            twiddle<Twiddled>(y1r, y1i, w1r, w1i);
            yr[k] = ar + br;
            yi[k] = ai + bi;
            yr[block + k] = y1r;
            yi[block + k] = y1i;
        }
    } else if constexpr (P == 3) {
        LR_SIMD_LOOP
        for (std::size_t k = 0; k < block; ++k) {
            Real x0r = xr[k], x0i = xi[k];
            Real x1r = xr[stride + k], x1i = xi[stride + k];
            Real x2r = xr[2 * stride + k], x2i = xi[2 * stride + k];
            detail::butterfly3(x0r, x0i, x1r, x1i, x2r, x2i);
            twiddle<Twiddled>(x1r, x1i, w1r, w1i);
            twiddle<Twiddled>(x2r, x2i, w2r, w2i);
            yr[k] = x0r;
            yi[k] = x0i;
            yr[block + k] = x1r;
            yi[block + k] = x1i;
            yr[2 * block + k] = x2r;
            yi[2 * block + k] = x2i;
        }
    } else if constexpr (P == 4) {
        LR_SIMD_LOOP
        for (std::size_t k = 0; k < block; ++k) {
            const Real a0r = xr[k], a0i = xi[k];
            const Real a1r = xr[stride + k], a1i = xi[stride + k];
            const Real a2r = xr[2 * stride + k], a2i = xi[2 * stride + k];
            const Real a3r = xr[3 * stride + k], a3i = xi[3 * stride + k];
            // 4-point DFT with W_4 = -j (forward sign convention).
            const Real s0r = a0r + a2r, s0i = a0i + a2i;
            const Real s1r = a0r - a2r, s1i = a0i - a2i;
            const Real s2r = a1r + a3r, s2i = a1i + a3i;
            const Real s3r = a1r - a3r, s3i = a1i - a3i;
            Real y1r = s1r + s3i, y1i = s1i - s3r;
            Real y2r = s0r - s2r, y2i = s0i - s2i;
            Real y3r = s1r - s3i, y3i = s1i + s3r;
            twiddle<Twiddled>(y1r, y1i, w1r, w1i);
            twiddle<Twiddled>(y2r, y2i, w2r, w2i);
            twiddle<Twiddled>(y3r, y3i, w3r, w3i);
            yr[k] = s0r + s2r;
            yi[k] = s0i + s2i;
            yr[block + k] = y1r;
            yi[block + k] = y1i;
            yr[2 * block + k] = y2r;
            yi[2 * block + k] = y2i;
            yr[3 * block + k] = y3r;
            yi[3 * block + k] = y3i;
        }
    } else {
        static_assert(P == 5, "specialized radices are 2, 3, 4 and 5");
        LR_SIMD_LOOP
        for (std::size_t k = 0; k < block; ++k) {
            Real x0r = xr[k], x0i = xi[k];
            Real x1r = xr[stride + k], x1i = xi[stride + k];
            Real x2r = xr[2 * stride + k], x2i = xi[2 * stride + k];
            Real x3r = xr[3 * stride + k], x3i = xi[3 * stride + k];
            Real x4r = xr[4 * stride + k], x4i = xi[4 * stride + k];
            detail::butterfly5(x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i, x4r,
                               x4i);
            twiddle<Twiddled>(x1r, x1i, w1r, w1i);
            twiddle<Twiddled>(x2r, x2i, w2r, w2i);
            twiddle<Twiddled>(x3r, x3i, w3r, w3i);
            twiddle<Twiddled>(x4r, x4i, w4r, w4i);
            yr[k] = x0r;
            yi[k] = x0i;
            yr[block + k] = x1r;
            yi[block + k] = x1i;
            yr[2 * block + k] = x2r;
            yi[2 * block + k] = x2i;
            yr[3 * block + k] = x3r;
            yi[3 * block + k] = x3i;
            yr[4 * block + k] = x4r;
            yi[4 * block + k] = x4i;
        }
    }
}

/**
 * A whole specialized-radix pass: block j = 0 skips its unit twiddles.
 * The first pass over a full bundle has single-element runs of
 * kFftBundleLanes Reals, which run as a compile-time length.
 */
template <std::size_t P>
void
radixPass(std::size_t m, std::size_t block, const Real *x_re,
          const Real *x_im, Real *y_re, Real *y_im, const Real *tw_re,
          const Real *tw_im)
{
    const std::size_t stride = m * block;
    auto blocks = [&](auto fixed) {
        constexpr std::size_t B = decltype(fixed)::value;
        butterflyBlock<P, false, B>(x_re, x_im, y_re, y_im, stride, block,
                                    nullptr, nullptr);
        for (std::size_t j = 1; j < m; ++j)
            butterflyBlock<P, true, B>(
                x_re + j * block, x_im + j * block, y_re + P * j * block,
                y_im + P * j * block, stride, block, tw_re + j * (P - 1),
                tw_im + j * (P - 1));
    };
    if (block == kFftBundleLanes)
        blocks(std::integral_constant<std::size_t, kFftBundleLanes>{});
    else
        blocks(std::integral_constant<std::size_t, 0>{});
}

/**
 * Generic radix: output u accumulates sum_t W_p^{tu} x_t as constant
 * complex axpy sweeps straight into its output run, then takes its
 * twiddle (w is null for the unit twiddles of block j = 0). Only the
 * primes 7-31 land here.
 */
void
genericBlock(std::size_t p, const Real *xr, const Real *xi, Real *yr,
             Real *yi, std::size_t stride, std::size_t block, const Real *wr,
             const Real *wi, const Real *root_re, const Real *root_im)
{
    for (std::size_t u = 0; u < p; ++u) {
        Real *outr = yr + u * block;
        Real *outi = yi + u * block;
        LR_SIMD_LOOP
        for (std::size_t k = 0; k < block; ++k) {
            outr[k] = xr[k];
            outi[k] = xi[k];
        }
        for (std::size_t t = 1; t < p; ++t) {
            const Real cr = root_re[(t * u) % p], ci = root_im[(t * u) % p];
            const Real *inr = xr + t * stride, *ini = xi + t * stride;
            LR_SIMD_LOOP
            for (std::size_t k = 0; k < block; ++k) {
                outr[k] += inr[k] * cr - ini[k] * ci;
                outi[k] += inr[k] * ci + ini[k] * cr;
            }
        }
        if (wr == nullptr || u == 0)
            continue;
        const Real tr = wr[u - 1], ti = wi[u - 1];
        LR_SIMD_LOOP
        for (std::size_t k = 0; k < block; ++k)
            twiddle<true>(outr[k], outi[k], tr, ti);
    }
}

} // namespace

void
stockhamPass(std::size_t p, std::size_t m, std::size_t block,
             const Real *x_re, const Real *x_im, Real *y_re, Real *y_im,
             const Real *tw_re, const Real *tw_im, const Real *root_re,
             const Real *root_im)
{
    switch (p) {
    case 2:
        radixPass<2>(m, block, x_re, x_im, y_re, y_im, tw_re, tw_im);
        return;
    case 3:
        radixPass<3>(m, block, x_re, x_im, y_re, y_im, tw_re, tw_im);
        return;
    case 4:
        radixPass<4>(m, block, x_re, x_im, y_re, y_im, tw_re, tw_im);
        return;
    case 5:
        radixPass<5>(m, block, x_re, x_im, y_re, y_im, tw_re, tw_im);
        return;
    default:
        break;
    }
    const std::size_t stride = m * block;
    for (std::size_t j = 0; j < m; ++j)
        genericBlock(p, x_re + j * block, x_im + j * block,
                     y_re + p * j * block, y_im + p * j * block, stride,
                     block, j == 0 ? nullptr : tw_re + j * (p - 1),
                     j == 0 ? nullptr : tw_im + j * (p - 1), root_re,
                     root_im);
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
