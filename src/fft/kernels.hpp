/**
 * @file
 * Inner-loop kernels of the FFT engine and element-wise complex math.
 *
 * The propagation hot path (FFT2 -> transfer-function Hadamard -> iFFT2)
 * spends essentially all of its time in a handful of inner loops: the
 * Stockham passes of the FFT engine (radix-2/3/4/5 butterflies
 * specialized, the primes 7-31 through a generic DFT) and the
 * element-wise complex Hadamard multiply. A pass runs over a bundle of
 * transforms held as split real/imag (structure-of-arrays) arrays with
 * the lane index innermost, so its loops are unit-stride runs of at least
 * the bundle's lane count; the Hadamard and sign loops run over
 * interleaved (re, im) pairs. All of them are plain Real arithmetic:
 * std::complex multiplies lower to __muldc3 (a libcall with inf/nan
 * fixups) on GCC/Clang, which blocks vectorization; these loops do not.
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
 * Transforms per bundle of the FFT engine. A bundle sits lane-innermost
 * in split real/imag scratch, so every Stockham pass's inner loop spans
 * kFftBundleLanes times the sub-transform count whatever the transform
 * length. Single-thread FFT2 with 8 lanes beat 16 lanes at every grid
 * from 32 to 200 points and beat 4 lanes at 32 and 64 (a tie at 96-128).
 */
inline constexpr std::size_t kFftBundleLanes = 8;

/**
 * The vectorizable kernels themselves. All pointers must be non-aliasing
 * unless a parameter is documented as in/out; stockhamPass takes split
 * real/imag arrays, the others take (re, im) pairs as laid out by
 * std::complex<Real> arrays.
 */
namespace kernels {

/**
 * One radix-p pass of the Stockham (autosort) decimation-in-frequency
 * schedule, out of place from x to y (x and y must not overlap).
 *
 * The pass splits each sub-transform of length p*m into p of length m.
 * Element i of every sub-transform is a contiguous run of `block` Reals
 * (the sub-transforms of the previous passes times the bundled
 * transforms, lane innermost), so every inner loop covers a whole run:
 *
 *   y[(p*j + u)*block + k] =
 *       W_{pm}^{j*u} * sum_t W_p^{t*u} * x[(j + t*m)*block + k]
 *
 * for j in [0, m), u in [0, p), k in [0, block), W_N = exp(-j*2*pi/N).
 * tw holds the twiddles j-major, tw[j*(p-1) + u-1] = W_{pm}^{j*u} (row
 * j = 0 is all ones and never read). p = 2, 3, 4, 5 run specialized
 * butterflies; any other p runs a generic DFT over root[t] = W_p^t
 * (root is unused for the specialized radices).
 */
void stockhamPass(std::size_t p, std::size_t m, std::size_t block,
                  const Real *x_re, const Real *x_im, Real *y_re,
                  Real *y_im, const Real *tw_re, const Real *tw_im,
                  const Real *root_re, const Real *root_im);

/**
 * a *= b element-wise over interleaved complex arrays of n samples
 * (2n Reals). This is the transfer-function Hadamard multiply of the
 * propagator.
 */
void cmulInterleaved(Real *a, const Real *b, std::size_t n);

/** a *= conj(b) element-wise over interleaved complex arrays. */
void cmulConjInterleaved(Real *a, const Real *b, std::size_t n);

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
