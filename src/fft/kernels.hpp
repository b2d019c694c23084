/**
 * @file
 * Inner-loop kernels of the FFT engine and element-wise complex math.
 *
 * The propagation hot path (FFT2 -> transfer-function Hadamard -> iFFT2)
 * spends essentially all of its time in a handful of inner loops: radix
 * butterflies (radix-2/3/4/5 specialized, other primes through generic
 * twiddle multiplies), Bluestein chirp products, and the element-wise
 * complex Hadamard multiply. This header exposes those loops as
 * structure-of-arrays (split real/imag) and interleaved-pair loops over
 * plain Real arithmetic with contiguous unit strides. std::complex
 * multiplies lower to __muldc3 (a libcall with inf/nan fixups) on
 * GCC/Clang, which blocks vectorization; these loops do not.
 *
 * With the configure-time option LIGHTRIDGE_SIMD on (the default) the
 * loops carry `omp simd` annotations and the build adds -fopenmp-simd so
 * they are honoured without an OpenMP runtime. With it off, the same
 * loops compile as plain loops. Either way results are deterministic and
 * independent of thread count.
 */
#pragma once

#include <cstddef>

#include "utils/types.hpp"

namespace lightridge {

/** True when the kernels carry `omp simd` annotations (LIGHTRIDGE_SIMD=ON). */
bool simdKernelsCompiled();

/**
 * Accuracy bound of the FFT engine: for inputs with |x_i| <= 1, a length-n
 * transform (or an n-element 2-D field) agrees with the O(n^2) DFT oracle
 * of the test suite within kFftKernelTolerance * n in max absolute
 * difference. Pinned by the FFT and property suites; loosening it is an
 * API change.
 */
inline constexpr Real kFftKernelTolerance = 1e-11;

/**
 * The vectorizable kernels themselves. All pointers must be non-aliasing
 * unless a parameter is documented as in/out; SoA variants take split
 * real/imag arrays, interleaved variants take (re, im) pairs as laid out
 * by std::complex<Real> arrays.
 */
namespace kernels {

/**
 * Radix-2 butterfly pass over one combine block.
 * data layout: x0 = (re[k], im[k]), x1 = (re[m+k], im[m+k]), k in [0, m).
 * Computes x0' = x0 + tw[k]*x1, x1' = x0 - tw[k]*x1 in place.
 */
void radix2Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
                std::size_t m);

/**
 * Radix-4 butterfly pass over one combine block of length 4m.
 * Twiddle arrays hold three unit-stride sub-tables of length m each:
 * tw_re[j*m + k] = Re(W_{4m}^{(j+1)k}) for j in {0,1,2}.
 */
void radix4Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
                std::size_t m);

/**
 * Radix-3 and radix-5 butterfly passes over one combine block of length
 * p*m, with the radix4Pass twiddle layout: p-1 unit-stride sub-tables,
 * tw_re[(j-1)*m + k] = Re(W_{pm}^{jk}) for j in 1..p-1. The p-point DFT
 * is the body the engine's twiddle-free 3- and 5-point leaves also use.
 */
void radix3Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
                std::size_t m);
void radix5Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
                std::size_t m);

/** out = a * b, element-wise complex multiply over split arrays. */
void cmulSoa(Real *out_re, Real *out_im, const Real *a_re, const Real *a_im,
             const Real *b_re, const Real *b_im, std::size_t n);

/** y += c * x for a complex constant c over split arrays. */
void caxpySoa(Real *y_re, Real *y_im, const Real *x_re, const Real *x_im,
              Real c_re, Real c_im, std::size_t n);

/**
 * a *= b element-wise over interleaved complex arrays of n samples
 * (2n Reals). This is the transfer-function Hadamard multiply of the
 * propagator and the Bluestein chirp product.
 */
void cmulInterleaved(Real *a, const Real *b, std::size_t n);

/** a *= conj(b) element-wise over interleaved complex arrays. */
void cmulConjInterleaved(Real *a, const Real *b, std::size_t n);

/**
 * dst = a * b element-wise over interleaved complex arrays (out of
 * place; dst must not alias a or b). Used where the product lands in a
 * different buffer anyway — the Bluestein chirp products — to avoid a
 * copy-then-multiply double pass.
 */
void cmulInterleavedOut(Real *dst, const Real *a, const Real *b,
                        std::size_t n);

/** Merge re[]/im[] back into n interleaved complex samples. */
void interleave(const Real *re, const Real *im, Real *dst, std::size_t n);

/**
 * dst = +/- src over n interleaved complex samples with the sign
 * alternating per sample, starting negative when negate_first is set.
 * This is one row of the Fraunhofer centered-DFT sign checkerboard
 * (-1)^(r+c); negation is exact. dst may alias src.
 */
void copySignAlternating(Real *dst, const Real *src, std::size_t n,
                         bool negate_first);

/**
 * a *= +/- scale over n interleaved complex samples with the sign
 * alternating per sample (the Fraunhofer adjoint's fused sign and N^2
 * rescale).
 */
void scaleSignAlternating(Real *a, Real scale, std::size_t n,
                          bool negate_first);

} // namespace kernels

} // namespace lightridge
