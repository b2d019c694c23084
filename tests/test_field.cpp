/**
 * @file
 * Field / RealMap container tests: arithmetic, readouts, resizing,
 * correlation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fft/kernels.hpp"
#include "tensor/field.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

TEST(RealMap, FillSumMeanMinMax)
{
    RealMap m(3, 4, 2.0);
    EXPECT_DOUBLE_EQ(m.sum(), 24.0);
    EXPECT_DOUBLE_EQ(m.mean(), 2.0);
    m(1, 2) = -5.0;
    m(0, 0) = 9.0;
    EXPECT_DOUBLE_EQ(m.min(), -5.0);
    EXPECT_DOUBLE_EQ(m.max(), 9.0);
    m.fill(0.0);
    EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(RealMap, ElementwiseOps)
{
    RealMap a(2, 2, 1.0);
    RealMap b(2, 2, 3.0);
    a += b;
    EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
    a -= b;
    EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
    a *= 2.5;
    EXPECT_DOUBLE_EQ(a(0, 1), 2.5);
}

TEST(Field, IntensityAmplitudePhase)
{
    Field f(1, 2);
    f(0, 0) = Complex{3, 4};
    f(0, 1) = std::polar(2.0, 0.5);
    RealMap intensity = f.intensity();
    EXPECT_DOUBLE_EQ(intensity(0, 0), 25.0);
    EXPECT_NEAR(f.amplitude()(0, 1), 2.0, 1e-12);
    EXPECT_NEAR(f.phase()(0, 1), 0.5, 1e-12);
    EXPECT_NEAR(f.power(), 29.0, 1e-12);
}

TEST(Field, PolarConstruction)
{
    RealMap amp(2, 2, 2.0);
    RealMap phase(2, 2, kPi / 2);
    Field f = Field::fromPolar(amp, phase);
    EXPECT_NEAR(f(0, 0).real(), 0.0, 1e-12);
    EXPECT_NEAR(f(0, 0).imag(), 2.0, 1e-12);

    Field g = Field::fromAmplitude(amp);
    EXPECT_NEAR(g(1, 1).real(), 2.0, 1e-12);
    EXPECT_NEAR(g(1, 1).imag(), 0.0, 1e-12);
}

TEST(Field, HadamardAndConjugate)
{
    Field a(1, 1), b(1, 1);
    a(0, 0) = Complex{1, 2};
    b(0, 0) = Complex{3, -1};
    Field c = a;
    c.hadamard(b);
    EXPECT_EQ(c(0, 0), Complex(1, 2) * Complex(3, -1));
    Field d = a;
    d.hadamardConj(b);
    EXPECT_EQ(d(0, 0), Complex(1, 2) * Complex(3, 1));

    // A random 96x96 field runs the vectorized loop body of the kernels;
    // each sample must match the std::complex product. The element-wise
    // product has no reduction to reassociate, so the bound is the
    // engine's unscaled kFftKernelTolerance.
    const std::size_t n = 96;
    Rng rng(42);
    Field x(n, n), y(n, n);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        y[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    Field product = x, product_conj = x;
    product.hadamard(y);
    product_conj.hadamardConj(y);
    Real worst = 0, worst_conj = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        worst = std::max(worst, std::abs(product[i] - x[i] * y[i]));
        worst_conj = std::max(worst_conj, std::abs(product_conj[i] -
                                                   x[i] * std::conj(y[i])));
    }
    EXPECT_LE(worst, kFftKernelTolerance);
    EXPECT_LE(worst_conj, kFftKernelTolerance);
}

TEST(Field, ScaleAddSubtract)
{
    Field a(2, 2, Complex{1, 1});
    a *= 2.0;
    EXPECT_EQ(a(0, 0), (Complex{2, 2}));
    a *= Complex{0, 1};
    EXPECT_EQ(a(0, 0), (Complex{-2, 2}));
    Field b(2, 2, Complex{1, 0});
    a += b;
    EXPECT_EQ(a(1, 1), (Complex{-1, 2}));
    a -= b;
    EXPECT_EQ(a(1, 1), (Complex{-2, 2}));
}

TEST(Correlation, IdenticalMapsGiveOne)
{
    RealMap a(4, 4);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<Real>(i % 5);
    EXPECT_NEAR(correlation(a, a), 1.0, 1e-12);
}

TEST(Correlation, AntiCorrelatedMapsGiveMinusOne)
{
    RealMap a(2, 8), b(2, 8);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<Real>(i);
        b[i] = -static_cast<Real>(i);
    }
    EXPECT_NEAR(correlation(a, b), -1.0, 1e-12);
}

TEST(Correlation, ScaleAndOffsetInvariant)
{
    RealMap a(3, 3), b(3, 3);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = std::sin(static_cast<Real>(i));
        b[i] = 3.0 * a[i] + 7.0;
    }
    EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
}

TEST(ResizeBilinear, IdentityWhenSameSize)
{
    RealMap a(5, 5);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<Real>(i);
    RealMap b = resizeBilinear(a, 5, 5);
    EXPECT_NEAR(maxAbsDiff(a, b), 0.0, 1e-12);
}

TEST(ResizeBilinear, PreservesConstantImages)
{
    RealMap a(4, 4, 3.5);
    RealMap up = resizeBilinear(a, 13, 9);
    EXPECT_NEAR(up.min(), 3.5, 1e-12);
    EXPECT_NEAR(up.max(), 3.5, 1e-12);
}

TEST(ResizeBilinear, UpscaleKeepsValueRange)
{
    RealMap a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    RealMap up = resizeBilinear(a, 8, 8);
    EXPECT_GE(up.min(), 0.0);
    EXPECT_LE(up.max(), 1.0);
}

TEST(EmbedCentered, PlacesInputInMiddle)
{
    RealMap a(2, 2, 1.0);
    RealMap big = embedCentered(a, 6, 6);
    EXPECT_DOUBLE_EQ(big.sum(), 4.0);
    EXPECT_DOUBLE_EQ(big(2, 2), 1.0);
    EXPECT_DOUBLE_EQ(big(3, 3), 1.0);
    EXPECT_DOUBLE_EQ(big(0, 0), 0.0);
}

TEST(EmbedCentered, ThrowsWhenTargetTooSmall)
{
    RealMap a(4, 4, 1.0);
    EXPECT_THROW(embedCentered(a, 3, 8), std::invalid_argument);
}

TEST(MaxAbsDiff, DetectsLargestDeviation)
{
    Field a(2, 2, Complex{0, 0});
    Field b = a;
    b(1, 0) = Complex{0, 3};
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 3.0);
}

} // namespace
} // namespace lightridge
