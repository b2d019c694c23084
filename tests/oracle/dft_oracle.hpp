/**
 * @file
 * Shared test oracle: reference O(n^2) / O(n^4) DFTs.
 *
 * Every suite that validates a fast transform (the planned FFT engine,
 * the LightPipes-like baseline) checks against this
 * single reference implementation, so a bug in the oracle cannot hide in
 * one suite what it forgives in another. The implementation is the
 * textbook direct sum with per-term modular angle reduction — slow, but
 * numerically transparent and independent of every code path under test.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "tensor/field.hpp"
#include "utils/types.hpp"

namespace lightridge {
namespace oracle {

/**
 * Direct 1-D DFT: X_k = sum_t x_t * exp(sign * j*2*pi*k*t/n).
 * sign = -1 is the engine's forward convention, +1 the (unscaled)
 * inverse.
 */
inline std::vector<Complex>
dft1d(const std::vector<Complex> &input, int sign)
{
    const std::size_t n = input.size();
    std::vector<Complex> output(n, Complex{0, 0});
    for (std::size_t k = 0; k < n; ++k) {
        Complex acc{0, 0};
        for (std::size_t t = 0; t < n; ++t) {
            Real angle = sign * kTwoPi * static_cast<Real>((k * t) % n) /
                         static_cast<Real>(n);
            acc += input[t] * Complex{std::cos(angle), std::sin(angle)};
        }
        output[k] = acc;
    }
    return output;
}

/**
 * Direct 2-D DFT over a Field (O(n^4): keep test grids small).
 * sign = -1 forward, +1 unscaled inverse, matching dft1d.
 */
inline Field
dft2d(const Field &input, int sign)
{
    const std::size_t rows = input.rows();
    const std::size_t cols = input.cols();
    Field output(rows, cols);
    for (std::size_t kr = 0; kr < rows; ++kr)
        for (std::size_t kc = 0; kc < cols; ++kc) {
            Complex acc{0, 0};
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t c = 0; c < cols; ++c) {
                    Real angle =
                        sign * kTwoPi *
                        (static_cast<Real>((kr * r) % rows) /
                             static_cast<Real>(rows) +
                         static_cast<Real>((kc * c) % cols) /
                             static_cast<Real>(cols));
                    acc += input(r, c) *
                           Complex{std::cos(angle), std::sin(angle)};
                }
            output(kr, kc) = acc;
        }
    return output;
}

} // namespace oracle
} // namespace lightridge
