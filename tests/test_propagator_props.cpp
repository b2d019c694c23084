/**
 * @file
 * Property-based sweeps over the propagator configuration space: for every
 * combination of (approximation, numerical method, padding, size) the
 * linear-operator invariants must hold - adjoint consistency, linearity,
 * zero-preservation - plus per-configuration physical properties (energy
 * conservation for unitary kernels, energy dissipation with padding).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "optics/propagator.hpp"
#include "support/hop.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

using PropParam = std::tuple<Diffraction, PropagationMethod, std::size_t,
                             std::size_t>; // approx, method, pad, n

class PropagatorProperty : public ::testing::TestWithParam<PropParam>
{
  protected:
    Propagator
    make() const
    {
        auto [approx, method, pad, n] = GetParam();
        PropagatorConfig cfg;
        cfg.grid = Grid{n, 36e-6};
        cfg.wavelength = 532e-9;
        cfg.distance = 0.05;
        cfg.approx = approx;
        cfg.method = method;
        cfg.pad_factor = pad;
        return Propagator(cfg);
    }

    Field
    randomField(std::size_t n, uint64_t seed) const
    {
        Rng rng(seed);
        Field f(n, n);
        for (std::size_t i = 0; i < f.size(); ++i)
            f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        return f;
    }
};

TEST_P(PropagatorProperty, AdjointIsConjugateTranspose)
{
    auto [approx, method, pad, n] = GetParam();
    Propagator prop = make();
    Field x = randomField(n, 1);
    Field y = randomField(n, 2);
    Field fx = hopForward(prop, x);
    Field aty = hopAdjoint(prop, y);
    Complex lhs{0, 0}, rhs{0, 0};
    for (std::size_t i = 0; i < x.size(); ++i) {
        lhs += std::conj(fx[i]) * y[i];
        rhs += std::conj(x[i]) * aty[i];
    }
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0,
                1e-7 * std::max<Real>(1.0, std::abs(lhs)));
}

TEST_P(PropagatorProperty, LinearOperator)
{
    auto [approx, method, pad, n] = GetParam();
    Propagator prop = make();
    Field a = randomField(n, 3);
    Field b = randomField(n, 4);
    const Complex ca{0.4, -0.9};

    Field combined(n, n);
    for (std::size_t i = 0; i < combined.size(); ++i)
        combined[i] = ca * a[i] + b[i];
    Field lhs = hopForward(prop, combined);
    Field fa = hopForward(prop, a);
    Field fb = hopForward(prop, b);
    Field rhs(n, n);
    for (std::size_t i = 0; i < rhs.size(); ++i)
        rhs[i] = ca * fa[i] + fb[i];
    EXPECT_LT(maxAbsDiff(lhs, rhs), 1e-9);
}

TEST_P(PropagatorProperty, ZeroMapsToZero)
{
    auto [approx, method, pad, n] = GetParam();
    Propagator prop = make();
    Field zero(n, n, Complex{0, 0});
    EXPECT_NEAR(hopForward(prop, zero).power(), 0.0, 1e-24);
    EXPECT_NEAR(hopAdjoint(prop, zero).power(), 0.0, 1e-24);
}

TEST_P(PropagatorProperty, EnergyBehaviour)
{
    auto [approx, method, pad, n] = GetParam();
    if (approx == Diffraction::Fraunhofer)
        GTEST_SKIP() << "fraunhofer rescales the output grid";
    Propagator prop = make();
    Field x = randomField(n, 5);
    Real in_power = x.power();
    Real out_power = hopForward(prop, x).power();
    if (pad == 1 && method == PropagationMethod::TransferFunction) {
        // Unit-modulus kernel on a circular domain: power conserved.
        EXPECT_NEAR(out_power, in_power, 1e-6 * in_power);
    } else if (pad > 1) {
        // With a guard band, light leaves the window: power only drops.
        EXPECT_LE(out_power, in_power * (1 + 1e-9));
    }
}

TEST_P(PropagatorProperty, DoublePassViaAdjointPreservesShape)
{
    // adjoint(forward(x)) is the normal operator; it must at least return
    // something of the right shape with finite values.
    auto [approx, method, pad, n] = GetParam();
    Propagator prop = make();
    Field x = randomField(n, 6);
    Field y = hopAdjoint(prop, hopForward(prop, x));
    ASSERT_EQ(y.rows(), n);
    ASSERT_EQ(y.cols(), n);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_TRUE(std::isfinite(y[i].real()) &&
                    std::isfinite(y[i].imag()));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PropagatorProperty,
    ::testing::Combine(
        ::testing::Values(Diffraction::RayleighSommerfeld,
                          Diffraction::Fresnel, Diffraction::Fraunhofer),
        ::testing::Values(PropagationMethod::TransferFunction,
                          PropagationMethod::ImpulseResponse),
        ::testing::Values<std::size_t>(1, 2),
        ::testing::Values<std::size_t>(16, 25)),
    [](const ::testing::TestParamInfo<PropParam> &info) {
        std::string name = diffractionName(std::get<0>(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        name += std::get<1>(info.param) ==
                        PropagationMethod::TransferFunction
                    ? "_tf"
                    : "_ir";
        name += "_pad" + std::to_string(std::get<2>(info.param));
        name += "_n" + std::to_string(std::get<3>(info.param));
        return name;
    });

/** Unitary round trip: forward then backward over -z recovers input. */
TEST(PropagatorRoundTrip, BackwardDistanceInvertsForward)
{
    PropagatorConfig cfg;
    cfg.grid = Grid{32, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.04;
    Propagator prop(cfg);

    Rng rng(9);
    Field x(32, 32);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

    // For the unit-modulus angular-spectrum kernel the adjoint IS the
    // inverse (unitary operator) when unpadded.
    Field back = hopAdjoint(prop, hopForward(prop, x));
    EXPECT_LT(maxAbsDiff(back, x), 1e-8);
}

/** Kernel caching: two propagators with identical config agree exactly. */
TEST(PropagatorRoundTrip, DeterministicAcrossInstances)
{
    PropagatorConfig cfg;
    cfg.grid = Grid{20, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.03;
    Propagator a(cfg), b(cfg);
    Rng rng(11);
    Field x(20, 20);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_EQ(maxAbsDiff(hopForward(a, x), hopForward(b, x)), 0.0);
}

TEST(PropagatorRoundTrip, RejectsWrongShape)
{
    PropagatorConfig cfg;
    cfg.grid = Grid{16, 36e-6};
    Propagator prop(cfg);
    Field wrong(8, 8, Complex{1, 0});
    EXPECT_THROW(hopForward(prop, wrong), std::invalid_argument);
}

TEST(PropagatorRoundTrip, BadConfigThrows)
{
    PropagatorConfig cfg;
    cfg.grid = Grid{0, 36e-6};
    EXPECT_THROW(Propagator{cfg}, std::invalid_argument);
    cfg.grid = Grid{16, 36e-6};
    cfg.pad_factor = 0;
    EXPECT_THROW(Propagator{cfg}, std::invalid_argument);
}

} // namespace
} // namespace lightridge
