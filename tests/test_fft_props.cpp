/**
 * @file
 * Property-based spectral harness for the FFT engine.
 *
 * Randomized transform lengths drawn from the three algorithm families
 * (power-of-two radix-2/4, smooth mixed-radix, prime > 31 Bluestein) are
 * checked against the shared oracle for the DFT properties that matter to
 * propagation numerics — oracle agreement within the engine's pinned
 * bound (kFftKernelTolerance), inverse round-trip, Parseval energy
 * conservation, linearity. A final suite pins the bitwise determinism of
 * the row-parallel FFT2 split.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels.hpp"
#include "oracle/dft_oracle.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"

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

/**
 * Deterministic randomized size generators, one per algorithm family.
 * Seeded per family so failures reproduce; each run covers the same
 * sizes, which keeps CI stable while still sampling awkward lengths.
 */
std::vector<std::size_t>
powerOfTwoSizes()
{
    Rng rng(101);
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 6; ++i)
        sizes.push_back(std::size_t(1) << rng.randint(1, 9)); // 2..512
    return sizes;
}

std::vector<std::size_t>
mixedRadixSizes()
{
    Rng rng(202);
    std::vector<std::size_t> sizes;
    while (sizes.size() < 8) {
        // Random smooth composite from factors {2,3,5,7}, bounded so the
        // O(n^2) oracle stays fast; odd-only products exercise plans with
        // no radix-2/4 level at all.
        std::size_t n = 1;
        const std::size_t primes[] = {2, 3, 5, 7};
        for (int f = 0; f < 5 && n < 400; ++f)
            n *= primes[rng.randint(0, 3)];
        if (n >= 6 && n <= 700)
            sizes.push_back(n);
    }
    return sizes;
}

std::vector<std::size_t>
bluesteinPrimeSizes()
{
    // Primes > kMaxDirectRadix = 31: every one takes the chirp-z path.
    Rng rng(303);
    const std::vector<std::size_t> primes{37,  41,  53,  61,  79,  101,
                                          127, 149, 211, 257, 331, 401};
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 6; ++i)
        sizes.push_back(
            primes[rng.randint(0, static_cast<int64_t>(primes.size()) - 1)]);
    return sizes;
}

class FftPropertyTest : public ::testing::TestWithParam<const char *>
{
  protected:
    std::vector<std::size_t>
    sizes() const
    {
        const std::string family = GetParam();
        if (family == "PowerOfTwo")
            return powerOfTwoSizes();
        if (family == "MixedRadix")
            return mixedRadixSizes();
        return bluesteinPrimeSizes();
    }
};

TEST_P(FftPropertyTest, ForwardMatchesOracle)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto x = randomSignal(n, 1000 + n);
        auto fast = x;
        plan.forward(fast.data());
        auto slow = oracle::dft1d(x, -1);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_LE(std::abs(fast[i] - slow[i]),
                      kFftKernelTolerance * static_cast<Real>(n))
                << "n=" << n << " i=" << i;
    }
}

TEST_P(FftPropertyTest, InverseRoundTripRecoversInput)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto x = randomSignal(n, 2000 + n);
        auto y = x;
        plan.forward(y.data());
        plan.inverse(y.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9)
                << "n=" << n << " i=" << i;
    }
}

TEST_P(FftPropertyTest, ParsevalEnergyConserved)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto x = randomSignal(n, 3000 + n);
        Real time_energy = 0;
        for (const auto &v : x)
            time_energy += std::norm(v);
        plan.forward(x.data());
        Real freq_energy = 0;
        for (const auto &v : x)
            freq_energy += std::norm(v);
        EXPECT_NEAR(freq_energy, time_energy * n, 1e-7 * n * n)
            << "n=" << n;
    }
}

TEST_P(FftPropertyTest, TransformIsLinear)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto a = randomSignal(n, 4000 + n);
        auto b = randomSignal(n, 5000 + n);
        const Complex ca{0.7, -0.3}, cb{-1.1, 0.2};
        std::vector<Complex> combined(n);
        for (std::size_t i = 0; i < n; ++i)
            combined[i] = ca * a[i] + cb * b[i];
        plan.forward(combined.data());
        plan.forward(a.data());
        plan.forward(b.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(combined[i] - (ca * a[i] + cb * b[i])),
                        0.0, 1e-8 * n)
                << "n=" << n << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FftPropertyTest,
    ::testing::Values("PowerOfTwo", "MixedRadix", "BluesteinPrime"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

/**
 * Row-parallel FFT2 must be bitwise-identical to the serial split, both
 * directions. 128x128 is a whole number of 8-transform bundles on each
 * axis; 130x138 leaves a partial bundle of 2 on both.
 */
TEST(Fft2dRowParallel, BitwiseIdenticalToSerialAcrossPools)
{
    struct Shape
    {
        std::size_t rows, cols;
    };
    for (const Shape shape : {Shape{128, 128}, Shape{130, 138}}) {
        SCOPED_TRACE(std::to_string(shape.rows) + "x" +
                     std::to_string(shape.cols));
        ASSERT_GE(shape.rows * shape.cols, kFft2dParallelMinElements);
        Fft2d fft(shape.rows, shape.cols);
        Rng rng(7);
        Field base(shape.rows, shape.cols);
        for (std::size_t i = 0; i < base.size(); ++i)
            base[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

        ThreadPool serial(1); // coerced to inline execution
        Field forward_ref = base;
        fft.forward(&forward_ref, &serial);
        Field inverse_ref = base;
        fft.inverse(&inverse_ref, &serial);

        for (std::size_t workers : {std::size_t(2), std::size_t(4)}) {
            ThreadPool pool(workers);
            Field forward = base;
            fft.forward(&forward, &pool);
            Field inverse = base;
            fft.inverse(&inverse, &pool);
            for (std::size_t i = 0; i < base.size(); ++i) {
                ASSERT_EQ(forward[i].real(), forward_ref[i].real())
                    << "workers=" << workers << " i=" << i;
                ASSERT_EQ(forward[i].imag(), forward_ref[i].imag())
                    << "workers=" << workers << " i=" << i;
                ASSERT_EQ(inverse[i].real(), inverse_ref[i].real())
                    << "workers=" << workers << " i=" << i;
                ASSERT_EQ(inverse[i].imag(), inverse_ref[i].imag())
                    << "workers=" << workers << " i=" << i;
            }
        }

        // Round trip through the parallel path recovers the input.
        ThreadPool pool(4);
        Field round = base;
        fft.forward(&round, &pool);
        fft.inverse(&round, &pool);
        EXPECT_LT(maxAbsDiff(round, base), 1e-10);
    }
}

} // namespace
} // namespace lightridge
