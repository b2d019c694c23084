/**
 * @file
 * LightPipes-like baseline engine tests. The baseline must compute the
 * SAME physics as LightRidge (it differs only in computational structure),
 * so the key property is numerical agreement with the optimized kernels.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/lightpipes_like.hpp"
#include "fft/fft.hpp"
#include "optics/propagator.hpp"
#include "oracle/dft_oracle.hpp"
#include "support/hop.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

using namespace baseline;

TEST(LpFft, MatchesPlannedFft1d)
{
    const std::size_t n = 60;
    Rng rng(2);
    std::vector<Real> re(n), im(n);
    std::vector<Complex> reference(n);
    for (std::size_t i = 0; i < n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
        reference[i] = Complex{re[i], im[i]};
    }
    lpFft1d(&re, &im, -1);
    FftPlan plan(n);
    plan.forward(reference.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(re[i], reference[i].real(), 1e-9);
        EXPECT_NEAR(im[i], reference[i].imag(), 1e-9);
    }
}

TEST(LpFft, InverseRoundTrip)
{
    const std::size_t n = 50;
    Rng rng(3);
    std::vector<Real> re(n), im(n), orig_re, orig_im;
    for (std::size_t i = 0; i < n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
    }
    orig_re = re;
    orig_im = im;
    lpFft1d(&re, &im, -1);
    lpFft1d(&re, &im, +1);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(re[i], orig_re[i], 1e-9);
        EXPECT_NEAR(im[i], orig_im[i], 1e-9);
    }
}

TEST(LpFft, PrimeSizeFallback)
{
    const std::size_t n = 31;
    Rng rng(4);
    std::vector<Real> re(n), im(n);
    std::vector<Complex> reference(n);
    for (std::size_t i = 0; i < n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
        reference[i] = Complex{re[i], im[i]};
    }
    lpFft1d(&re, &im, -1);
    auto slow = oracle::dft1d(reference, -1);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(re[i], slow[i].real(), 1e-9);
        EXPECT_NEAR(im[i], slow[i].imag(), 1e-9);
    }
}

TEST(LpFft2d, MatchesPlanned2d)
{
    const std::size_t n = 20;
    Rng rng(5);
    std::vector<Real> re(n * n), im(n * n);
    Field reference(n, n);
    for (std::size_t i = 0; i < n * n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
        reference[i] = Complex{re[i], im[i]};
    }
    lpFft2d(n, &re, &im, -1);
    Fft2d fft(n, n);
    fft.forward(&reference);
    for (std::size_t i = 0; i < n * n; ++i) {
        EXPECT_NEAR(re[i], reference[i].real(), 1e-8);
        EXPECT_NEAR(im[i], reference[i].imag(), 1e-8);
    }
}

TEST(LpComplexMultiply, MatchesComplexArithmetic)
{
    Rng rng(6);
    const std::size_t n = 17;
    std::vector<Real> ar(n), ai(n), br(n), bi(n);
    std::vector<Complex> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        ar[i] = rng.uniform(-1, 1);
        ai[i] = rng.uniform(-1, 1);
        br[i] = rng.uniform(-1, 1);
        bi[i] = rng.uniform(-1, 1);
        a[i] = Complex{ar[i], ai[i]};
        b[i] = Complex{br[i], bi[i]};
    }
    lpComplexMultiply(&ar, &ai, br, bi);
    for (std::size_t i = 0; i < n; ++i) {
        Complex expected = a[i] * b[i];
        EXPECT_NEAR(ar[i], expected.real(), 1e-12);
        EXPECT_NEAR(ai[i], expected.imag(), 1e-12);
    }
}

TEST(LpForvard, MatchesLightRidgePropagator)
{
    const std::size_t n = 48;
    const Real pitch = 36e-6, lambda = 532e-9, z = 0.05;

    Rng rng(7);
    RealMap amplitude(n, n);
    for (std::size_t i = 0; i < amplitude.size(); ++i)
        amplitude[i] = rng.uniform(0, 1);

    // Baseline path.
    LpField lp = lpBegin(n, pitch, lambda);
    lpSetAmplitude(&lp, amplitude);
    lpForvard(&lp, z);
    Field lp_out = lpToField(lp);

    // LightRidge path.
    PropagatorConfig cfg;
    cfg.grid = Grid{n, pitch};
    cfg.wavelength = lambda;
    cfg.distance = z;
    Propagator prop(cfg);
    Field lr_out = hopForward(prop, Field::fromAmplitude(amplitude));

    EXPECT_LT(maxAbsDiff(lp_out, lr_out), 1e-8);
}

TEST(LpSubPhase, AppliesPhaseRotation)
{
    LpField lp = lpBegin(4, 1e-5, 532e-9);
    RealMap phase(4, 4, kPi / 2);
    lpSubPhase(&lp, phase);
    // 1 * e^{j pi/2} = j.
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_NEAR(lp.re[i], 0.0, 1e-12);
        EXPECT_NEAR(lp.im[i], 1.0, 1e-12);
    }
}

TEST(LpDonnForward, MatchesLightRidgeEndToEnd)
{
    const std::size_t n = 32;
    const Real pitch = 36e-6, lambda = 532e-9;
    const Real z = idealDistanceHalfCone(Grid{n, pitch}, lambda);

    Rng rng(8);
    RealMap input(n, n);
    std::vector<RealMap> phases;
    for (int l = 0; l < 3; ++l) {
        RealMap phase(n, n);
        for (std::size_t i = 0; i < phase.size(); ++i)
            phase[i] = rng.uniform(0, kTwoPi);
        phases.push_back(phase);
    }
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = rng.uniform(0, 1);

    RealMap lp_intensity = lpDonnForward(input, phases, pitch, lambda, z);

    // Equivalent LightRidge stack.
    PropagatorConfig cfg;
    cfg.grid = Grid{n, pitch};
    cfg.wavelength = lambda;
    cfg.distance = z;
    auto prop = std::make_shared<Propagator>(cfg);
    Field u = Field::fromAmplitude(input);
    for (const RealMap &phase : phases) {
        u = hopForward(*prop, u);
        for (std::size_t i = 0; i < u.size(); ++i)
            u[i] *= std::polar(Real(1), phase[i]);
    }
    u = hopForward(*prop, u);
    RealMap lr_intensity = u.intensity();

    EXPECT_GT(correlation(lp_intensity, lr_intensity), 0.999999);
    EXPECT_LT(maxAbsDiff(lp_intensity, lr_intensity), 1e-7);
}

TEST(LpField, ShapeMismatchThrows)
{
    LpField lp = lpBegin(8, 1e-5, 532e-9);
    RealMap wrong(4, 4, 0.0);
    EXPECT_THROW(lpSetAmplitude(&lp, wrong), std::invalid_argument);
    EXPECT_THROW(lpSubPhase(&lp, wrong), std::invalid_argument);
}

} // namespace
} // namespace lightridge
