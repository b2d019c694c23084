/**
 * @file
 * Optical physics kernel validation: transfer-function properties, energy
 * conservation, agreement between numerical routes, analytic Gaussian-beam
 * diffraction, Fraunhofer far-field structure, and adjoint correctness.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "optics/diffraction.hpp"
#include "optics/laser.hpp"
#include "optics/propagator.hpp"
#include "support/hop.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

Field
randomField(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

PropagatorConfig
baseConfig(std::size_t n = 64)
{
    PropagatorConfig cfg;
    cfg.grid = Grid{n, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.05;
    return cfg;
}

TEST(Grid, CoordinatesAndFrequencies)
{
    Grid g{8, 1e-3};
    EXPECT_DOUBLE_EQ(g.aperture(), 8e-3);
    EXPECT_DOUBLE_EQ(g.coord(4), 0.0);
    EXPECT_DOUBLE_EQ(g.coord(0), -4e-3);
    EXPECT_DOUBLE_EQ(g.freq(0), 0.0);
    EXPECT_DOUBLE_EQ(g.freq(1), 1.0 / 8e-3);
    EXPECT_DOUBLE_EQ(g.freq(7), -1.0 / 8e-3);  // wrapped negative bin
    EXPECT_DOUBLE_EQ(g.freq(4), -4.0 / 8e-3);  // Nyquist
}

TEST(TransferFunction, AngularSpectrumHasUnitModulus)
{
    Grid g{32, 36e-6};
    Field h = transferFunction(Diffraction::RayleighSommerfeld,
                               PropagationMethod::TransferFunction, g,
                               532e-9, 0.05);
    // All sampled frequencies here are propagating (pitch >> lambda).
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_NEAR(std::abs(h[i]), 1.0, 1e-12);
}

TEST(TransferFunction, FresnelHasUnitModulus)
{
    Grid g{32, 36e-6};
    Field h = transferFunction(Diffraction::Fresnel,
                               PropagationMethod::TransferFunction, g,
                               532e-9, 0.05);
    for (std::size_t i = 0; i < h.size(); ++i)
        EXPECT_NEAR(std::abs(h[i]), 1.0, 1e-12);
}

TEST(TransferFunction, DcBinIsPlaneWavePhase)
{
    Grid g{16, 36e-6};
    Real z = 0.02, lambda = 532e-9;
    Field h = transferFunction(Diffraction::RayleighSommerfeld,
                               PropagationMethod::TransferFunction, g,
                               lambda, z);
    Complex expected = std::polar(Real(1), waveNumber(lambda) * z);
    EXPECT_NEAR(std::abs(h(0, 0) - expected), 0.0, 1e-9);
}

TEST(TransferFunction, FraunhoferRouteThrows)
{
    Grid g{16, 36e-6};
    EXPECT_THROW(transferFunction(Diffraction::Fraunhofer,
                                  PropagationMethod::TransferFunction, g,
                                  532e-9, 0.05),
                 std::invalid_argument);
}

TEST(TransferFunction, BadArgumentsThrow)
{
    Grid g{16, 36e-6};
    EXPECT_THROW(transferFunction(Diffraction::Fresnel,
                                  PropagationMethod::TransferFunction, g,
                                  -1.0, 0.05),
                 std::invalid_argument);
    EXPECT_THROW(transferFunction(Diffraction::Fresnel,
                                  PropagationMethod::TransferFunction, g,
                                  532e-9, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(transferFunction(Diffraction::Fresnel,
                                  PropagationMethod::TransferFunction,
                                  Grid{0, 1e-6}, 532e-9, 0.05),
                 std::invalid_argument);
}

TEST(Propagator, ConservesEnergyUnpadded)
{
    Propagator prop(baseConfig());
    Field u = randomField(64, 1);
    Real before = u.power();
    Field out = hopForward(prop, u);
    EXPECT_NEAR(out.power(), before, 1e-8 * before);
}

TEST(Propagator, ZeroFieldStaysZero)
{
    Propagator prop(baseConfig(32));
    Field u(32, 32, Complex{0, 0});
    Field out = hopForward(prop, u);
    EXPECT_NEAR(out.power(), 0.0, 1e-20);
}

TEST(Propagator, LinearInInput)
{
    Propagator prop(baseConfig(32));
    Field a = randomField(32, 2);
    Field b = randomField(32, 3);
    Complex ca{0.3, 0.7};

    Field combined(32, 32);
    for (std::size_t i = 0; i < combined.size(); ++i)
        combined[i] = ca * a[i] + b[i];
    Field out_combined = hopForward(prop, combined);

    Field out_a = hopForward(prop, a);
    Field out_b = hopForward(prop, b);
    Field expected(32, 32);
    for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = ca * out_a[i] + out_b[i];
    EXPECT_LT(maxAbsDiff(out_combined, expected), 1e-10);
}

TEST(Propagator, ComposesAcrossDistance)
{
    // Propagating z then z must equal propagating 2z (group property).
    PropagatorConfig cfg = baseConfig(48);
    Propagator one(cfg);
    cfg.distance *= 2;
    Propagator two(cfg);

    Field u = randomField(48, 4);
    Field via_two_hops = hopForward(one, hopForward(one, u));
    Field direct = hopForward(two, u);
    EXPECT_LT(maxAbsDiff(via_two_hops, direct), 1e-8);
}

TEST(Propagator, AdjointMatchesInnerProduct)
{
    for (auto approx : {Diffraction::RayleighSommerfeld,
                        Diffraction::Fresnel, Diffraction::Fraunhofer}) {
        PropagatorConfig cfg = baseConfig(24);
        cfg.approx = approx;
        cfg.distance = 0.3; // far enough for fraunhofer to be sane
        Propagator prop(cfg);
        Field x = randomField(24, 5);
        Field y = randomField(24, 6);
        Field fx = hopForward(prop, x);
        Field aty = hopAdjoint(prop, y);
        Complex lhs{0, 0}, rhs{0, 0};
        for (std::size_t i = 0; i < x.size(); ++i) {
            lhs += std::conj(fx[i]) * y[i];
            rhs += std::conj(x[i]) * aty[i];
        }
        EXPECT_NEAR(std::abs(lhs - rhs), 0.0,
                    1e-6 * std::max<Real>(1.0, std::abs(lhs)))
            << diffractionName(approx);
    }
}

TEST(Propagator, AdjointMatchesInnerProductWithPadding)
{
    PropagatorConfig cfg = baseConfig(20);
    cfg.pad_factor = 2;
    Propagator prop(cfg);
    Field x = randomField(20, 7);
    Field y = randomField(20, 8);
    Field fx = hopForward(prop, x);
    Field aty = hopAdjoint(prop, y);
    Complex lhs{0, 0}, rhs{0, 0};
    for (std::size_t i = 0; i < x.size(); ++i) {
        lhs += std::conj(fx[i]) * y[i];
        rhs += std::conj(x[i]) * aty[i];
    }
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8);
}

TEST(Propagator, ImpulseResponseAgreesWithAngularSpectrum)
{
    // In a well-sampled regime the paper's Eq. 1 sampled-kernel route and
    // the analytic angular spectrum must coincide on the bulk field.
    PropagatorConfig cfg;
    cfg.grid = Grid{128, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.10;
    cfg.pad_factor = 2;
    cfg.method = PropagationMethod::TransferFunction;
    Propagator as(cfg);
    cfg.method = PropagationMethod::ImpulseResponse;
    Propagator ir(cfg);

    // Small centered Gaussian spot.
    Field u(128, 128, Complex{0, 0});
    for (std::size_t r = 54; r < 74; ++r)
        for (std::size_t c = 54; c < 74; ++c) {
            Real dr = static_cast<Real>(r) - 64, dc = static_cast<Real>(c) - 64;
            u(r, c) = std::exp(-(dr * dr + dc * dc) / 50.0);
        }

    Field a = hopForward(as, u);
    Field b = hopForward(ir, u);
    Real corr = correlation(a.intensity(), b.intensity());
    EXPECT_GT(corr, 0.98);
}

TEST(Propagator, FresnelAgreesWithRayleighSommerfeldParaxial)
{
    // Paraxial regime: large z relative to aperture -> Fresnel is valid.
    PropagatorConfig cfg;
    cfg.grid = Grid{96, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.30;
    cfg.approx = Diffraction::RayleighSommerfeld;
    Propagator rs(cfg);
    cfg.approx = Diffraction::Fresnel;
    Propagator fr(cfg);

    Field u(96, 96, Complex{0, 0});
    for (std::size_t r = 40; r < 56; ++r)
        for (std::size_t c = 40; c < 56; ++c)
            u(r, c) = Complex{1, 0};

    Field a = hopForward(rs, u);
    Field b = hopForward(fr, u);
    EXPECT_GT(correlation(a.intensity(), b.intensity()), 0.995);
}

TEST(Propagator, GaussianBeamSpreadsPerAnalyticFormula)
{
    // Launch a Gaussian beam and compare the second-moment width after
    // propagation against w(z) = w0 sqrt(1 + (z/zR)^2).
    const std::size_t n = 256;
    const Real pitch = 10e-6;
    const Real lambda = 532e-9;
    const Real w0 = 120e-6;
    const Real z = 0.2;

    PropagatorConfig cfg;
    cfg.grid = Grid{n, pitch};
    cfg.wavelength = lambda;
    cfg.distance = z;
    cfg.pad_factor = 2;
    Propagator prop(cfg);

    Grid grid = cfg.grid;
    Field u(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            Real x = grid.coord(c), y = grid.coord(r);
            u(r, c) = std::exp(-(x * x + y * y) / (w0 * w0));
        }

    Field out = hopForward(prop, u);
    RealMap intensity = out.intensity();

    // Second moment along x: for I ~ exp(-2 r^2 / w^2), <x^2> = w^2/4.
    Real total = 0, mx2 = 0;
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            Real x = grid.coord(c);
            total += intensity(r, c);
            mx2 += intensity(r, c) * x * x;
        }
    Real w_measured = 2.0 * std::sqrt(mx2 / total);
    Real w_expected = gaussianBeamRadius(w0, lambda, z);
    EXPECT_NEAR(w_measured, w_expected, 0.03 * w_expected);
}

TEST(Propagator, FraunhoferOutputPitchMatchesFormula)
{
    PropagatorConfig cfg = baseConfig(100);
    cfg.approx = Diffraction::Fraunhofer;
    cfg.distance = 1.0;
    Propagator prop(cfg);
    Real expected = cfg.wavelength * cfg.distance /
                    (100 * cfg.grid.pitch);
    EXPECT_NEAR(prop.outputPitch(), expected, 1e-15);
}

TEST(Propagator, FraunhoferCircularApertureGivesAiryPattern)
{
    // The far field of a circular aperture is the Airy disk: first zero at
    // radius 1.22 * lambda * z / D.
    const std::size_t n = 200;
    const Real pitch = 10e-6;
    const Real lambda = 532e-9;
    const Real z = 2.0;
    const Real aperture_d = 0.6e-3; // diameter

    PropagatorConfig cfg;
    cfg.grid = Grid{n, pitch};
    cfg.wavelength = lambda;
    cfg.distance = z;
    cfg.approx = Diffraction::Fraunhofer;
    Propagator prop(cfg);

    Grid grid = cfg.grid;
    Field u(n, n, Complex{0, 0});
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            Real x = grid.coord(c), y = grid.coord(r);
            if (x * x + y * y <= aperture_d * aperture_d / 4)
                u(r, c) = Complex{1, 0};
        }

    Field out = hopForward(prop, u);
    RealMap intensity = out.intensity();

    // Peak must be at the center.
    std::size_t peak_r = 0, peak_c = 0;
    Real peak = -1;
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if (intensity(r, c) > peak) {
                peak = intensity(r, c);
                peak_r = r;
                peak_c = c;
            }
    EXPECT_EQ(peak_r, n / 2);
    EXPECT_EQ(peak_c, n / 2);

    // First minimum along the +x axis near 1.22 lambda z / D.
    Real expected_zero = 1.22 * lambda * z / aperture_d;
    Real out_pitch = prop.outputPitch();
    std::size_t idx_min = 0;
    Real min_val = 1e300;
    for (std::size_t c = n / 2 + 1; c < n - 1; ++c) {
        Real val = intensity(n / 2, c);
        if (val < min_val) {
            min_val = val;
            idx_min = c;
        }
        if (val > 10 * min_val)
            break; // passed the first ring
    }
    Real measured_zero = (static_cast<Real>(idx_min) - n / 2) * out_pitch;
    EXPECT_NEAR(measured_zero, expected_zero, 0.1 * expected_zero);
}

TEST(Laser, PlaneProfileIsUniform)
{
    Laser laser;
    Field p = sourceProfile(laser, Grid{16, 1e-5});
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(p[i], (Complex{1, 0}));
}

TEST(Laser, GaussianProfilePeaksAtCenter)
{
    Laser laser;
    laser.profile = BeamProfile::Gaussian;
    laser.waist = 2e-4;
    Grid g{32, 2e-5};
    Field p = sourceProfile(laser, g);
    Real center = std::abs(p(16, 16));
    Real corner = std::abs(p(0, 0));
    EXPECT_GT(center, 0.9);
    EXPECT_LT(corner, center);
}

TEST(Laser, BesselProfileHasCentralLobeAndRings)
{
    Laser laser;
    laser.profile = BeamProfile::Bessel;
    Grid g{64, 2e-5};
    Field p = sourceProfile(laser, g);
    EXPECT_NEAR(std::abs(p(32, 32)), 1.0, 0.05);
    // J0 goes negative between rings somewhere along the axis.
    bool has_negative = false;
    for (std::size_t c = 32; c < 64; ++c)
        if (p(32, c).real() < -0.01)
            has_negative = true;
    EXPECT_TRUE(has_negative);
}

TEST(Laser, EncodeInputPutsImageOnAmplitude)
{
    Laser laser;
    Grid g{8, 1e-5};
    RealMap image(8, 8, 0.0);
    image(3, 4) = 0.7;
    Field f = encodeInput(image, laser, g);
    EXPECT_EQ(f(3, 4), (Complex{0.7, 0}));
    EXPECT_EQ(f(0, 0), (Complex{0, 0}));
}

TEST(Validity, FresnelAndFraunhoferBounds)
{
    Grid g{64, 36e-6};
    Real lambda = 532e-9;
    // Very close: neither valid.
    EXPECT_FALSE(fresnelValid(g, lambda, 1e-4));
    EXPECT_FALSE(fraunhoferValid(g, lambda, 1e-4));
    // Very far: both valid.
    EXPECT_TRUE(fresnelValid(g, lambda, 100.0));
    EXPECT_TRUE(fraunhoferValid(g, lambda, 100.0));
}

TEST(Validity, HalfConeIdealDistanceScalesWithPitch)
{
    Real lambda = 532e-9;
    Real d_small = idealDistanceHalfCone(Grid{100, 10e-6}, lambda);
    Real d_large = idealDistanceHalfCone(Grid{100, 40e-6}, lambda);
    EXPECT_GT(d_large, d_small); // bigger units diffract less -> need more z
    EXPECT_GT(d_small, 0.0);
}

TEST(Validity, SubWavelengthUnitsReturnZeroDistance)
{
    EXPECT_DOUBLE_EQ(idealDistanceHalfCone(Grid{10, 200e-9}, 532e-9), 0.0);
}

} // namespace
} // namespace lightridge
