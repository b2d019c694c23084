/**
 * @file
 * Hardware stack tests: SLM response model, quantization, thickness
 * conversion, CMOS digitization, deployment simulators, fabrication dump.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "hardware/deploy.hpp"
#include "hardware/energy.hpp"
#include "hardware/to_system.hpp"
#include "optics/perturbation.hpp"
#include "support/hop.hpp"

namespace lightridge {
namespace {

TEST(Slm, LutSizeAndMonotonicPhase)
{
    SlmDevice slm = SlmDevice::holoeyeLc2012(64);
    EXPECT_EQ(slm.levels(), 64u);
    for (std::size_t k = 1; k < slm.levels(); ++k)
        EXPECT_GT(slm.phaseOfLevel(k) >= 0
                      ? slm.phaseOfLevel(k)
                      : slm.phaseOfLevel(k) + kTwoPi,
                  -1e-12);
    // Response is monotonically increasing in retardation.
    Real prev = 0;
    for (std::size_t k = 0; k < slm.levels(); ++k) {
        Real phi = std::arg(slm.lut().levels[k]);
        if (phi < 0)
            phi += kTwoPi;
        EXPECT_GE(phi + 1e-9, prev);
        prev = phi;
    }
}

TEST(Slm, AmplitudeCouplingDipsMidRange)
{
    SlmDevice slm = SlmDevice::holoeyeLc2012(256);
    Real amp_first = std::abs(slm.lut().levels.front());
    Real amp_mid = std::abs(slm.lut().levels[128]);
    EXPECT_NEAR(amp_first, 1.0, 1e-9);
    EXPECT_LT(amp_mid, 0.95); // coupled transmission dip
}

TEST(Slm, IdealDeviceHasUnitAmplitude)
{
    SlmDevice slm = SlmDevice::idealPhaseOnly(16);
    for (const Complex &m : slm.lut().levels)
        EXPECT_NEAR(std::abs(m), 1.0, 1e-12);
}

TEST(Slm, NearestLevelQuantization)
{
    SlmDevice slm = SlmDevice::idealPhaseOnly(4); // phases 0, pi/2, pi, 3pi/2
    EXPECT_EQ(slm.levelForPhase(0.1), 0u);
    EXPECT_EQ(slm.levelForPhase(kPi / 2 + 0.1), 1u);
    EXPECT_EQ(slm.levelForPhase(-kPi / 2), 3u); // wraps
}

TEST(Slm, ThicknessForPhaseFormula)
{
    // t = phi * lambda / (2*pi*(n-1)); full 2*pi at n=1.7 -> lambda/0.7.
    Real lambda = 532e-9;
    EXPECT_NEAR(SlmDevice::thicknessForPhase(kTwoPi - 1e-9, lambda, 1.7),
                lambda / 0.7, 1e-12);
    EXPECT_NEAR(SlmDevice::thicknessForPhase(0.0, lambda, 1.7), 0.0, 1e-15);
    // Phase wraps modulo 2*pi.
    EXPECT_NEAR(SlmDevice::thicknessForPhase(kTwoPi + 1.0, lambda, 1.7),
                SlmDevice::thicknessForPhase(1.0, lambda, 1.7), 1e-15);
}

TEST(Cmos, NoiselessQuantizationPreservesPattern)
{
    CmosDetector cmos = CmosDetector::ideal();
    RealMap intensity(8, 8);
    for (std::size_t i = 0; i < intensity.size(); ++i)
        intensity[i] = static_cast<Real>(i) / intensity.size();
    RealMap out = cmos.measure(intensity, nullptr);
    EXPECT_GT(correlation(intensity, out), 0.999);
}

TEST(Cmos, EightBitAdcQuantizes)
{
    CmosDetector cmos; // 8-bit
    RealMap intensity(4, 4, 0.0);
    intensity(0, 0) = 1.0;
    intensity(1, 1) = 0.5;
    RealMap out = cmos.measure(intensity, nullptr);
    // Quantized codes: ratios preserved to within one LSB of 255.
    EXPECT_NEAR(out(1, 1) / out(0, 0), 0.5, 0.01);
}

TEST(Cmos, NoiseIsBoundedAndSeedDeterministic)
{
    CmosDetector cmos;
    RealMap intensity(16, 16, 0.5);
    Rng a(3), b(3);
    RealMap out_a = cmos.measure(intensity, &a);
    RealMap out_b = cmos.measure(intensity, &b);
    EXPECT_EQ(maxAbsDiff(out_a, out_b), 0.0);
    EXPECT_GT(correlation(intensity, out_a), -1.1);
}

/** Small trained raw model + dataset shared by deployment tests. */
struct DeployFixture
{
    SystemSpec spec;
    ClassDataset train = makeSynthDigits(160, 3);
    ClassDataset test = makeSynthDigits(80, 4);
    Rng rng{9};

    DeployFixture()
    {
        spec.size = 32;
        spec.pixel = 36e-6;
        spec.distance =
            idealDistanceHalfCone(Grid{32, 36e-6}, 532e-9);
    }

    DonnModel
    trainedRaw()
    {
        DonnModel model = ModelBuilder(spec, Laser{})
                              .diffractiveLayers(2, 1.0, &rng)
                              .detectorGrid(10, 4)
                              .build();
        TrainConfig tc;
        tc.epochs = 2;
        tc.lr = 0.05;
        ClassificationTask task(model, train);
        Session(task, tc).fit();
        return model;
    }
};

TEST(Deploy, RawDeploymentDegradesOnCoarseDevice)
{
    DeployFixture fx;
    DonnModel model = fx.trainedRaw();
    Real sim_acc = evaluateAccuracy(model, fx.test);

    // Very coarse (4-level), strongly coupled device: big gap expected.
    SlmDevice coarse(4, 0.9 * kTwoPi, 1.6, 0.5);
    Rng rng(5);
    DonnModel hw = deployRaw(model, coarse,
                             FabricationVariation{0.3, 0.1}, &rng);
    Real hw_acc = evaluateDeployed(hw, fx.test, CmosDetector::cs165mu1(),
                                   &rng);
    EXPECT_LT(hw_acc, sim_acc + 1e-9);
}

TEST(Deploy, FineIdealDeviceBarelyDegrades)
{
    DeployFixture fx;
    DonnModel model = fx.trainedRaw();
    Real sim_acc = evaluateAccuracy(model, fx.test);

    SlmDevice fine = SlmDevice::idealPhaseOnly(256);
    Rng rng(6);
    DonnModel hw =
        deployRaw(model, fine, FabricationVariation::none(), nullptr);
    Real hw_acc =
        evaluateDeployed(hw, fx.test, CmosDetector::ideal(), nullptr);
    EXPECT_NEAR(hw_acc, sim_acc, 0.06);
}

TEST(Deploy, CodesignDeploymentIsExact)
{
    DeployFixture fx;
    DeviceLut lut = SlmDevice::holoeyeLc2012(8).lut();
    DonnModel model = ModelBuilder(fx.spec, Laser{})
                          .codesignLayers(2, lut, 1.0, 1.0, nullptr)
                          .detectorGrid(10, 4)
                          .build();
    // Randomize logits so argmax states are nontrivial.
    Rng lrng(2);
    for (ParamView p : model.params())
        for (Real &v : *p.value)
            v = lrng.uniform(-1, 1);

    Rng rng(7);
    DonnModel hw =
        deployCodesign(model, FabricationVariation::none(), nullptr);
    // Deployment of codesign weights with no fabrication error must match
    // the model's own inference path exactly.
    Field input = model.encode(fx.test.images[0]);
    Field sim = model.inferField(input);
    Field dep = hw.inferField(input);
    EXPECT_LT(maxAbsDiff(sim, dep), 1e-9);
}

TEST(Deploy, RejectsWrongLayerKinds)
{
    DeployFixture fx;
    DeviceLut lut = DeviceLut::idealPhase(4);
    DonnModel codesign = ModelBuilder(fx.spec, Laser{})
                             .codesignLayers(1, lut)
                             .detectorGrid(10, 4)
                             .build();
    SlmDevice slm = SlmDevice::idealPhaseOnly(4);
    EXPECT_THROW(
        deployRaw(codesign, slm, FabricationVariation::none(), nullptr),
        std::invalid_argument);

    Rng rng(1);
    DonnModel raw = ModelBuilder(fx.spec, Laser{})
                        .diffractiveLayers(1, 1.0, &rng)
                        .detectorGrid(10, 4)
                        .build();
    EXPECT_THROW(deployCodesign(raw, FabricationVariation::none(), nullptr),
                 std::invalid_argument);
}

TEST(ToSystem, WritesBundleForRawModel)
{
    DeployFixture fx;
    Rng rng(1);
    DonnModel model = ModelBuilder(fx.spec, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 4)
                          .build();
    const std::string dir = "/tmp/lr_tosystem_test";
    std::filesystem::remove_all(dir);
    SlmDevice slm = SlmDevice::holoeyeLc2012(16);
    ASSERT_TRUE(toSystem(model, slm, dir));
    EXPECT_TRUE(std::filesystem::exists(dir + "/manifest.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/layer0.csv"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/layer1.csv"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/layer0.pgm"));

    Json manifest = Json::load(dir + "/manifest.json");
    EXPECT_EQ(manifest.at("layers").asArray().size(), 2u);
    EXPECT_EQ(manifest.at("target").asString(), "slm_voltages");
    std::filesystem::remove_all(dir);
}

TEST(ToSystem, ThzThicknessExport)
{
    DeployFixture fx;
    Rng rng(2);
    DonnModel model = ModelBuilder(fx.spec, Laser{})
                          .diffractiveLayers(1, 1.0, &rng)
                          .detectorGrid(10, 4)
                          .build();
    const std::string dir = "/tmp/lr_tosystem_thz";
    std::filesystem::remove_all(dir);
    ToSystemOptions opts;
    opts.target = DeployTarget::ThzMaskThickness;
    opts.write_views = false;
    ASSERT_TRUE(toSystem(model, SlmDevice::idealPhaseOnly(256), dir, opts));
    Json manifest = Json::load(dir + "/manifest.json");
    EXPECT_EQ(manifest.at("target").asString(), "thz_mask_thickness");
    std::filesystem::remove_all(dir);
}

TEST(Energy, DonnModelMatchesPaperScale)
{
    DonnEnergyModel donn;
    // Paper: ~995 fps/Watt for the prototype (1000 fps, ~1.005 W).
    EXPECT_NEAR(donn.fpsPerWatt(), 995.0, 1.0);
    // DONN beats every digital platform in the reference table.
    for (const PlatformPoint &p : paperDigitalReference())
        EXPECT_GT(donn.fpsPerWatt(), p.fpsPerWatt());
}

TEST(FixedModulation, AdjointConsistency)
{
    PropagatorConfig cfg;
    cfg.grid = Grid{16, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.01;
    auto prop = std::make_shared<Propagator>(cfg);
    Rng rng(4);
    Field mod(16, 16);
    for (std::size_t i = 0; i < mod.size(); ++i)
        mod[i] = std::polar(rng.uniform(0.5, 1.0), rng.uniform(0, kTwoPi));
    FixedModulationLayer layer(prop, mod);

    Field x(16, 16), y(16, 16);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        y[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    Field fx = x;
    layer.forwardInPlace(fx, PropagationWorkspace::threadLocal());
    Field aty = y;
    layer.backwardInPlace(aty, PropagationWorkspace::threadLocal());
    Complex lhs{0, 0}, rhs{0, 0};
    for (std::size_t i = 0; i < x.size(); ++i) {
        lhs += std::conj(fx[i]) * y[i];
        rhs += std::conj(x[i]) * aty[i];
    }
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9);
}

TEST(FixedModulation, InPlacePathsMatchReferenceBitwise)
{
    // The in-place passes must equal an independent hop-then-modulate
    // reference bit for bit: deployed models run through the
    // zero-allocation serving path, and any drift here would silently
    // change hardware-simulation results.
    PropagatorConfig cfg;
    cfg.grid = Grid{16, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.01;
    auto prop = std::make_shared<Propagator>(cfg);
    Rng rng(11);
    Field mod(16, 16);
    for (std::size_t i = 0; i < mod.size(); ++i)
        mod[i] = std::polar(rng.uniform(0.5, 1.0), rng.uniform(0, kTwoPi));
    FixedModulationLayer layer(prop, mod);
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();

    Field x(16, 16);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

    Field reference = hopForward(*prop, x);
    reference.hadamard(mod);

    Field via_infer = x;
    layer.inferInPlace(via_infer, workspace);
    ASSERT_EQ(via_infer.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(via_infer[i], reference[i]);

    Field via_forward = x;
    layer.forwardInPlace(via_forward, workspace); // frozen: same path
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(via_forward[i], reference[i]);

    // Backward: conjugate modulation, then the adjoint hop.
    Field g(16, 16);
    for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    Field conj_modulated = g;
    conj_modulated.hadamardConj(mod);
    Field grad_reference = hopAdjoint(*prop, conj_modulated);
    Field grad_in_place = g;
    layer.backwardInPlace(grad_in_place, workspace);
    for (std::size_t i = 0; i < grad_reference.size(); ++i)
        EXPECT_EQ(grad_in_place[i], grad_reference[i]);
}

bool
sameBits(const Field &a, const Field &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

TEST(ModulationLayer, KindsShareOneHopThenModulatePath)
{
    // The three layer kinds differ only in how M is parametrized, so a
    // frozen layer holding a trained layer's table must reproduce it bit
    // for bit in every pass, with or without an attached misalignment
    // realization (a deployed model stands for the same physical system).
    PropagatorConfig cfg;
    cfg.grid = Grid{16, 36e-6};
    cfg.wavelength = 532e-9;
    cfg.distance = 0.01;
    auto prop = std::make_shared<Propagator>(cfg);
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    Rng rng(29);

    DiffractiveLayer diffractive(prop, 1.0, &rng);
    Field exp_phase(16, 16);
    for (std::size_t i = 0; i < exp_phase.size(); ++i)
        exp_phase[i] = std::polar(Real(1), diffractive.phase()[i]);
    FixedModulationLayer fixed(prop, exp_phase);

    LayerPerturbation shifted;
    fillHopPerturbation(*prop, 2 * cfg.grid.pitch, -cfg.grid.pitch, 0.0,
                        shifted.hop);
    shifted.has_noise = true;
    shifted.noise = Field(16, 16);
    shifted.noise_conj = Field(16, 16);
    for (std::size_t i = 0; i < shifted.noise.size(); ++i) {
        const Real eps = rng.normal(0.0, 0.2);
        shifted.noise[i] = std::polar<Real>(1.0, eps);
        shifted.noise_conj[i] = std::polar<Real>(1.0, -eps);
    }

    for (const LayerPerturbation *p : {static_cast<LayerPerturbation *>(
                                           nullptr),
                                       &shifted}) {
        SCOPED_TRACE(p ? "perturbed" : "unperturbed");
        diffractive.setPerturbation(p);
        fixed.setPerturbation(p);
        Field x(16, 16), g(16, 16);
        for (std::size_t i = 0; i < x.size(); ++i) {
            x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
            g[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        }

        Field a = x, b = x;
        diffractive.inferInPlace(a, workspace);
        fixed.inferInPlace(b, workspace);
        EXPECT_TRUE(sameBits(a, b)) << "inferInPlace";

        a = x;
        b = x;
        diffractive.forwardInPlace(a, workspace);
        fixed.forwardInPlace(b, workspace);
        EXPECT_TRUE(sameBits(a, b)) << "forwardInPlace";

        a = g;
        b = g;
        diffractive.backwardInPlace(a, workspace);
        fixed.backwardInPlace(b, workspace);
        EXPECT_TRUE(sameBits(a, b)) << "backwardInPlace";
    }
    // The realization is not ignored: the perturbed pass differs.
    Field plain(16, 16, Complex{1, 0}), perturbed = plain;
    fixed.setPerturbation(nullptr);
    fixed.inferInPlace(plain, workspace);
    fixed.setPerturbation(&shifted);
    fixed.inferInPlace(perturbed, workspace);
    EXPECT_FALSE(sameBits(plain, perturbed));

    // Codesign inference is its argmax device state, frozen.
    CodesignLayer codesign(prop, DeviceLut::idealPhase(8));
    for (ParamView view : codesign.params())
        for (Real &logit : *view.value)
            logit = rng.normal(0.0, 1.0);
    const std::vector<std::size_t> levels = codesign.levelIndices();
    Field argmax(16, 16);
    for (std::size_t i = 0; i < argmax.size(); ++i)
        argmax[i] = codesign.lut().levels[levels[i]];
    FixedModulationLayer deployed(prop, argmax);
    Field x(16, 16);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    Field a = x, b = x;
    codesign.inferInPlace(a, workspace);
    deployed.inferInPlace(b, workspace);
    EXPECT_TRUE(sameBits(a, b));
}

} // namespace
} // namespace lightridge
