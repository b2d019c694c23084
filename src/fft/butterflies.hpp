/**
 * @file
 * Twiddle-free 3- and 5-point DFT butterflies of the Stockham passes.
 *
 * The radix-3 and radix-5 passes in fft/kernels.cpp run these bodies on
 * unit-stride bundle runs before the twiddle multiply. Values are split
 * real/imag and transformed in place with the forward sign convention
 * y_t = sum_j x_j * exp(-j*2*pi*t*j/p). The bodies are header-inline so
 * they vanish into the surrounding `omp simd` loop.
 */
#pragma once

#include "utils/types.hpp"

namespace lightridge {
namespace kernels {
namespace detail {

inline constexpr Real kSin2Pi3 = 0.866025403784438646763723170753; // sin(2pi/3)
inline constexpr Real kCos2Pi5 = 0.309016994374947424102293417183; // cos(2pi/5)
inline constexpr Real kCos4Pi5 = -0.809016994374947424102293417183; // cos(4pi/5)
inline constexpr Real kSin2Pi5 = 0.951056516295153572116439333379; // sin(2pi/5)
inline constexpr Real kSin4Pi5 = 0.587785252292473129168705954639; // sin(4pi/5)

// The operands are scalar references rather than arrays: an addressable
// array inside an `omp simd` loop becomes a per-lane "simd array" that
// GCC then fails to vectorize.

/** In-place 3-point DFT of x0..x2 (each a split real/imag pair). */
inline void
butterfly3(Real &x0r, Real &x0i, Real &x1r, Real &x1i, Real &x2r, Real &x2i)
{
    const Real sr = x1r + x2r, si = x1i + x2i;
    const Real dr = x1r - x2r, di = x1i - x2i;
    const Real tr = x0r - Real(0.5) * sr, ti = x0i - Real(0.5) * si;
    x0r += sr;
    x0i += si;
    // y1 = t - j*sin(2pi/3)*d, y2 = t + j*sin(2pi/3)*d.
    x1r = tr + kSin2Pi3 * di;
    x1i = ti - kSin2Pi3 * dr;
    x2r = tr - kSin2Pi3 * di;
    x2i = ti + kSin2Pi3 * dr;
}

/** In-place 5-point DFT of x0..x4 (each a split real/imag pair). */
inline void
butterfly5(Real &x0r, Real &x0i, Real &x1r, Real &x1i, Real &x2r, Real &x2i,
           Real &x3r, Real &x3i, Real &x4r, Real &x4i)
{
    const Real s1r = x1r + x4r, s1i = x1i + x4i;
    const Real d1r = x1r - x4r, d1i = x1i - x4i;
    const Real s2r = x2r + x3r, s2i = x2i + x3i;
    const Real d2r = x2r - x3r, d2i = x2i - x3i;
    // Even parts: t1 feeds outputs 1 and 4, t2 feeds 2 and 3.
    const Real t1r = x0r + kCos2Pi5 * s1r + kCos4Pi5 * s2r;
    const Real t1i = x0i + kCos2Pi5 * s1i + kCos4Pi5 * s2i;
    const Real t2r = x0r + kCos4Pi5 * s1r + kCos2Pi5 * s2r;
    const Real t2i = x0i + kCos4Pi5 * s1i + kCos2Pi5 * s2i;
    // Odd parts: y_t = t -/+ j*u for the mirrored output pairs.
    const Real u1r = kSin2Pi5 * d1r + kSin4Pi5 * d2r;
    const Real u1i = kSin2Pi5 * d1i + kSin4Pi5 * d2i;
    const Real u2r = kSin4Pi5 * d1r - kSin2Pi5 * d2r;
    const Real u2i = kSin4Pi5 * d1i - kSin2Pi5 * d2i;
    x0r += s1r + s2r;
    x0i += s1i + s2i;
    x1r = t1r + u1i;
    x1i = t1i - u1r;
    x4r = t1r - u1i;
    x4i = t1i + u1r;
    x2r = t2r + u2i;
    x2i = t2i - u2r;
    x3r = t2r - u2i;
    x3i = t2i + u2r;
}

} // namespace detail
} // namespace kernels
} // namespace lightridge
