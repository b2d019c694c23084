/**
 * @file
 * FFT engine validation: round trips, reference-DFT agreement, transform
 * identities (Parseval, linearity, shift), 2-D behaviour, Bluestein path.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fft/fft.hpp"
#include "oracle/dft_oracle.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

std::vector<Complex>
randomSignal(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> x(n);
    for (auto &v : x)
        v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return x;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FftSizeTest, RoundTripRecoversInput)
{
    const std::size_t n = GetParam();
    FftPlan plan(n);
    std::vector<Complex> x = randomSignal(n, 11 + n);
    std::vector<Complex> y = x;
    plan.forward(y.data());
    plan.inverse(y.data());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9) << "i=" << i;
}

TEST_P(FftSizeTest, MatchesNaiveDft)
{
    const std::size_t n = GetParam();
    FftPlan plan(n);
    std::vector<Complex> x = randomSignal(n, 23 + n);
    std::vector<Complex> fast = x;
    plan.forward(fast.data());
    std::vector<Complex> slow = oracle::dft1d(x, -1);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-8 * n)
            << "i=" << i;
}

TEST_P(FftSizeTest, ParsevalHolds)
{
    const std::size_t n = GetParam();
    FftPlan plan(n);
    std::vector<Complex> x = randomSignal(n, 31 + n);
    Real time_energy = 0;
    for (const auto &v : x)
        time_energy += std::norm(v);
    plan.forward(x.data());
    Real freq_energy = 0;
    for (const auto &v : x)
        freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy, time_energy * n, 1e-7 * n * n);
}

// Mixed-radix smooth sizes, awkward sizes, primes (Bluestein), paper sizes.
INSTANTIATE_TEST_SUITE_P(
    Sizes, FftSizeTest,
    ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20,
                                   25, 27, 28, 32, 35, 49, 50, 64, 81, 100,
                                   101, 121, 125, 127, 128, 200, 243, 251,
                                   256, 350, 500));

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    FftPlan plan(16);
    std::vector<Complex> x(16, Complex{0, 0});
    x[0] = Complex{1, 0};
    plan.forward(x.data());
    for (const auto &v : x) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const std::size_t n = 60;
    const std::size_t bin = 7;
    FftPlan plan(n);
    std::vector<Complex> x(n);
    for (std::size_t t = 0; t < n; ++t) {
        Real angle = kTwoPi * bin * t / static_cast<Real>(n);
        x[t] = Complex{std::cos(angle), std::sin(angle)};
    }
    plan.forward(x.data());
    for (std::size_t k = 0; k < n; ++k) {
        Real expected = (k == bin) ? static_cast<Real>(n) : 0.0;
        EXPECT_NEAR(std::abs(x[k]), expected, 1e-8) << "k=" << k;
    }
}

TEST(Fft, LinearityOfTransform)
{
    const std::size_t n = 54;
    FftPlan plan(n);
    auto a = randomSignal(n, 1);
    auto b = randomSignal(n, 2);
    const Complex ca{0.7, -0.3}, cb{-1.1, 0.2};

    std::vector<Complex> combined(n);
    for (std::size_t i = 0; i < n; ++i)
        combined[i] = ca * a[i] + cb * b[i];
    plan.forward(combined.data());
    plan.forward(a.data());
    plan.forward(b.data());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(combined[i] - (ca * a[i] + cb * b[i])), 0.0,
                    1e-9);
}

TEST(Fft, TimeShiftBecomesLinearPhase)
{
    const std::size_t n = 40;
    const std::size_t shift = 3;
    FftPlan plan(n);
    auto x = randomSignal(n, 5);
    std::vector<Complex> shifted(n);
    for (std::size_t i = 0; i < n; ++i)
        shifted[i] = x[(i + n - shift) % n];
    plan.forward(x.data());
    plan.forward(shifted.data());
    for (std::size_t k = 0; k < n; ++k) {
        Real angle = -kTwoPi * static_cast<Real>(shift * k) / n;
        Complex expected = x[k] * Complex{std::cos(angle), std::sin(angle)};
        EXPECT_NEAR(std::abs(shifted[k] - expected), 0.0, 1e-9);
    }
}

TEST(Fft2d, RoundTrip)
{
    Fft2d fft(24, 36);
    Rng rng(3);
    Field f(24, 36);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    Field orig = f;
    fft.forward(&f);
    fft.inverse(&f);
    EXPECT_LT(maxAbsDiff(f, orig), 1e-10);
}

TEST(Fft2d, MatchesSeparableNaiveDft)
{
    // 15x20 and 25x9 run radix-3/5 passes on both axes, and both sides
    // of each leave a partial bundle of fewer than 8 transforms. 12x10
    // runs radix-2/5 rows and radix-4/3 columns, the 37-point columns of
    // 37x12 take the Bluestein path, and the 3 rows of 3x50 are a single
    // bundle shorter than 8.
    struct Shape
    {
        std::size_t rows, cols;
    };
    for (const Shape shape : {Shape{8, 8}, Shape{15, 20}, Shape{25, 9},
                              Shape{12, 10}, Shape{37, 12}, Shape{3, 50}}) {
        SCOPED_TRACE(std::to_string(shape.rows) + "x" +
                     std::to_string(shape.cols));
        Fft2d fft(shape.rows, shape.cols);
        Rng rng(9);
        Field f(shape.rows, shape.cols);
        for (std::size_t i = 0; i < f.size(); ++i)
            f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

        Field ref = oracle::dft2d(f, -1);

        fft.forward(&f);
        EXPECT_LT(maxAbsDiff(f, ref), kFftKernelTolerance * f.size());
    }
}

TEST(Fft2d, ImpulseAtOriginIsFlat)
{
    Fft2d fft(10, 14);
    Field f(10, 14, Complex{0, 0});
    f(0, 0) = Complex{1, 0};
    fft.forward(&f);
    for (std::size_t i = 0; i < f.size(); ++i)
        EXPECT_NEAR(std::abs(f[i] - Complex{1, 0}), 0.0, 1e-10);
}

TEST(FftShift, EvenSizeIsInvolution)
{
    Field f(8, 8);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{static_cast<Real>(i), 0};
    Field shifted = fftshift(f);
    EXPECT_NE(maxAbsDiff(shifted, f), 0.0);
    Field back = fftshift(shifted);
    EXPECT_EQ(maxAbsDiff(back, f), 0.0);
}

TEST(FftShift, OddSizeInverseUndoesShift)
{
    Field f(7, 9);
    Rng rng(4);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(), rng.uniform()};
    Field back = ifftshift(fftshift(f));
    EXPECT_EQ(maxAbsDiff(back, f), 0.0);
}

TEST(FftShift, CentersTheOriginBin)
{
    Field f(4, 4, Complex{0, 0});
    f(0, 0) = Complex{1, 0};
    Field shifted = fftshift(f);
    EXPECT_EQ(shifted(2, 2), (Complex{1, 0}));
}

TEST(NextFastLength, ReturnsSmoothLengths)
{
    EXPECT_EQ(nextFastLength(1), 1u);
    EXPECT_EQ(nextFastLength(7), 7u);
    EXPECT_EQ(nextFastLength(11), 12u);
    EXPECT_EQ(nextFastLength(13), 14u);
    EXPECT_EQ(nextFastLength(101), 105u);
    EXPECT_EQ(nextFastLength(257), 270u);
}

TEST(FftPlan, ZeroLengthThrows)
{
    EXPECT_THROW(FftPlan(0), std::invalid_argument);
}

} // namespace
} // namespace lightridge
