/**
 * @file
 * Model container tests: builder DSL, serialization round trips,
 * encode path, multichannel wiring, spec JSON, optimizers.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "core/layer_norm.hpp"
#include "core/model.hpp"
#include "core/session.hpp"
#include "core/skip.hpp"
#include "data/synth_digits.hpp"

namespace lightridge {
namespace {

SystemSpec
smallSpec()
{
    SystemSpec spec;
    spec.size = 16;
    spec.pixel = 36e-6;
    spec.distance = 0.02;
    return spec;
}

TEST(SystemSpec, JsonRoundTrip)
{
    SystemSpec spec;
    spec.size = 200;
    spec.pixel = 3.6e-5;
    spec.distance = 0.3;
    spec.approx = Diffraction::Fresnel;
    spec.method = PropagationMethod::ImpulseResponse;
    spec.pad_factor = 2;
    SystemSpec back = SystemSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.size, spec.size);
    EXPECT_DOUBLE_EQ(back.pixel, spec.pixel);
    EXPECT_DOUBLE_EQ(back.distance, spec.distance);
    EXPECT_EQ(back.approx, spec.approx);
    EXPECT_EQ(back.method, spec.method);
    EXPECT_EQ(back.pad_factor, spec.pad_factor);
}

TEST(ModelBuilder, BuildsRequestedStack)
{
    Rng rng(1);
    DonnModel model = ModelBuilder(smallSpec(), Laser{})
                          .diffractiveLayers(3, 1.5, &rng)
                          .layerNorm()
                          .detectorGrid(4, 3)
                          .build();
    EXPECT_EQ(model.depth(), 4u);
    EXPECT_EQ(model.detector().numClasses(), 4u);
    auto *d0 = dynamic_cast<DiffractiveLayer *>(model.layer(0));
    ASSERT_NE(d0, nullptr);
    EXPECT_DOUBLE_EQ(d0->gamma(), 1.5);
    EXPECT_EQ(model.layer(3)->kind(), "layernorm");
}

TEST(ModelBuilder, BuildWithoutDetectorThrows)
{
    // The detector-less failure used to surface only at the first
    // readout; build() now fails fast instead.
    Rng rng(1);
    ModelBuilder builder(smallSpec(), Laser{});
    builder.diffractiveLayers(2, 1.0, &rng);
    EXPECT_THROW(builder.build(), std::logic_error);
}

TEST(ModelBuilder, BuildWithDetectorSucceeds)
{
    Rng rng(1);
    ModelBuilder builder(smallSpec(), Laser{});
    builder.diffractiveLayers(1, 1.0, &rng).detectorGrid(4, 3);
    EXPECT_NO_THROW(builder.build());
}

TEST(DonnModel, EncodeResizesToSystemGrid)
{
    DonnModel model = ModelBuilder(smallSpec(), Laser{})
                          .diffractiveLayers(1)
                          .detectorGrid(4, 3)
                          .build();
    RealMap img(28, 28, 0.5);
    Field f = model.encode(img);
    EXPECT_EQ(f.rows(), 16u);
    EXPECT_EQ(f.cols(), 16u);
    EXPECT_NEAR(f(8, 8).real(), 0.5, 1e-9);
}

TEST(DonnModel, SerializationPreservesPredictions)
{
    Rng rng(5);
    DonnModel model = ModelBuilder(smallSpec(), Laser{})
                          .diffractiveLayers(2, 1.2, &rng)
                          .detectorGrid(4, 3)
                          .build();
    model.detector().setAmpFactor(7.5);

    ClassDataset data = makeSynthDigits(6, 9);
    const std::string path = "/tmp/lr_model_test.json";
    ASSERT_TRUE(model.save(path));
    DonnModel loaded = DonnModel::load(path);

    EXPECT_EQ(loaded.depth(), 2u);
    EXPECT_DOUBLE_EQ(loaded.detector().ampFactor(), 7.5);
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    for (std::size_t i = 0; i < data.size(); ++i) {
        Field ua = model.encode(data.images[i]);
        Field ub = ua;
        std::vector<Real> a = model.inferLogitsInPlace(ua, workspace);
        std::vector<Real> b = loaded.inferLogitsInPlace(ub, workspace);
        for (std::size_t k = 0; k < a.size(); ++k)
            EXPECT_NEAR(a[k], b[k], 1e-9 * std::max<Real>(1.0, a[k]));
    }
    std::remove(path.c_str());
}

TEST(DonnModel, CodesignSerializationRoundTrip)
{
    DeviceLut lut = DeviceLut::idealPhase(5);
    DonnModel model = ModelBuilder(smallSpec(), Laser{})
                          .codesignLayers(1, lut, 0.7, 1.1)
                          .detectorGrid(4, 3)
                          .build();
    Rng lrng(3);
    for (ParamView p : model.params())
        for (Real &v : *p.value)
            v = lrng.uniform(-1, 1);

    Json j = model.toJson();
    DonnModel loaded = DonnModel::fromJson(j);
    auto *cd = dynamic_cast<CodesignLayer *>(loaded.layer(0));
    ASSERT_NE(cd, nullptr);
    EXPECT_EQ(cd->lut().size(), 5u);
    EXPECT_DOUBLE_EQ(cd->tau(), 0.7);
    EXPECT_DOUBLE_EQ(cd->gamma(), 1.1);
    // Level decisions preserved.
    auto *orig = dynamic_cast<CodesignLayer *>(model.layer(0));
    EXPECT_EQ(cd->levelIndices(), orig->levelIndices());
}

TEST(DonnModel, SkipSerializationRoundTrip)
{
    SystemSpec spec = smallSpec();
    Laser laser;
    DonnModel model(spec, laser);
    Rng rng(11);
    std::vector<LayerPtr> inner;
    inner.push_back(std::make_unique<DiffractiveLayer>(model.hopPropagator(),
                                                       1.0, &rng));
    model.addLayer(std::make_unique<OpticalSkipLayer>(
        model.hopPropagator(), std::move(inner), 0.8, 0.6));
    model.setDetector(DetectorPlane(DetectorPlane::gridLayout(16, 4, 3)));

    Json j = model.toJson();
    DonnModel loaded = DonnModel::fromJson(j);
    ASSERT_EQ(loaded.depth(), 1u);
    EXPECT_EQ(loaded.layer(0)->kind(), "skip");

    RealMap img(16, 16, 0.3);
    Field input = model.encode(img);
    Field a = model.inferField(input);
    Field b = loaded.inferField(input);
    EXPECT_LT(maxAbsDiff(a, b), 1e-9);
}

TEST(DonnModel, MissingDetectorThrows)
{
    DonnModel model(smallSpec(), Laser{});
    Field u(16, 16, Complex{1, 0});
    EXPECT_THROW(
        model.inferLogitsInPlace(u, PropagationWorkspace::threadLocal()),
        std::logic_error);
}

/**
 * Checkpoints are outside input: an edited size, enum, detector region or
 * LUT entry must fail to load with a JsonError naming the field, since
 * each would otherwise index past a buffer or select a nonexistent enum
 * value when the model serves.
 */
TEST(DonnModel, CraftedCheckpointFieldsThrowJsonError)
{
    DonnModel model = ModelBuilder(smallSpec(), Laser{})
                          .codesignLayers(1, DeviceLut::idealPhase(4))
                          .detectorGrid(2, 3)
                          .build();
    auto layout = DetectorPlane::differentialGridLayout(16, 2, 3);
    model.setDetector(DetectorPlane(layout.first, layout.second));
    Json good = model.toJson();
    addCheckpointHeader(good);

    // The unedited document still round-trips.
    verifyCheckpointHeader(good, "good");
    EXPECT_EQ(DonnModel::fromJson(good).toJson().dump(),
              model.toJson().dump());

    auto region = [](Json &j, const char *list) -> Json & {
        return j["detector"][list].asArray()[0];
    };
    const std::vector<std::pair<std::string, std::function<void(Json &)>>>
        edits = {
            {"spec.size", [](Json &j) { j["spec"]["size"] = Json(-1); }},
            {"spec.size", [](Json &j) { j["spec"]["size"] = Json(16.5); }},
            {"spec.pad_factor",
             [](Json &j) { j["spec"]["pad_factor"] = Json(0); }},
            {"spec.approx", [](Json &j) { j["spec"]["approx"] = Json(3); }},
            {"spec.method", [](Json &j) { j["spec"]["method"] = Json(9); }},
            {"laser.profile",
             [](Json &j) { j["laser"]["profile"] = Json(-1); }},
            {"detector.regions[0].r0",
             [&](Json &j) { region(j, "regions")["r0"] = Json(100000); }},
            {"detector.regions[0].c0",
             [&](Json &j) { region(j, "regions")["c0"] = Json(1.5); }},
            {"detector.regions[0].h",
             [&](Json &j) { region(j, "regions")["h"] = Json(1e6); }},
            {"detector.regions[0].w",
             [&](Json &j) { region(j, "regions")["w"] = Json(0); }},
            {"detector.neg_regions[0].h",
             [&](Json &j) { region(j, "neg_regions")["h"] = Json(16); }},
            {"lut", [](Json &j) {
                 j["layers"].asArray()[0]["lut"].asArray()[0] =
                     Json(Json::Array{});
             }},
            {"modulation", [](Json &j) {
                 Json fixed;
                 fixed["kind"] = Json("fixed");
                 Json values; // one number, not 2 * 16 * 16
                 values.push(Json(1.0));
                 fixed["modulation"] = std::move(values);
                 j["layers"].push(std::move(fixed));
             }},
            // A layer entry reads through the spec schema: unknown keys
            // and the values a spec rejects fail here too.
            {"gama", [](Json &j) {
                 Json::Object &layer = j["layers"].asArray()[0].asObject();
                 layer["gama"] = layer.at("gamma");
                 layer.erase("gamma");
             }},
            {"tau",
             [](Json &j) { j["layers"].asArray()[0]["tau"] = Json(0); }},
            {"levels",
             [](Json &j) { j["layers"].asArray()[0]["levels"] = Json(0); }},
            {"lut", [](Json &j) {
                 j["layers"].asArray()[0]["lut"] = Json(Json::Array{});
             }},
            // At most 256 device levels, as `levels` or as a lut.
            {"levels", [](Json &j) {
                 Json::Object &layer = j["layers"].asArray()[0].asObject();
                 layer.erase("lut");
                 layer["levels"] = Json(1e12);
             }},
            {"lut", [](Json &j) {
                 Json &lut = j["layers"].asArray()[0]["lut"];
                 while (lut.asArray().size() <= 256)
                     lut.push(lut.asArray()[0]);
             }},
            {"eps", [](Json &j) {
                 j["layers"].push(Json::parse(R"({"kind": "layernorm",
                                                  "eps": -1})"));
             }},
            {"eps", [](Json &j) {
                 j["layers"].push(Json::parse(R"({"kind": "layernorm",
                                                  "eps": 0})"));
             }},
            {"inner", [](Json &j) {
                 j["layers"].push(Json::parse(R"({"kind": "skip",
                                                  "inner": []})"));
             }},
            {"warp_drive", [](Json &j) {
                 j["layers"].push(Json::parse(R"({"kind": "warp_drive"})"));
             }},
        };
    for (const auto &[field, edit] : edits) {
        Json j = good;
        edit(j);
        try {
            DonnModel::fromJson(j);
            ADD_FAILURE() << "edit of " << field << " loaded";
        } catch (const JsonError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    }

    Json bad_version = good;
    bad_version["version"] = Json(1e300);
    EXPECT_THROW(verifyCheckpointHeader(bad_version, "crafted"), JsonError);
}

TEST(MultiChannel, RequiresMatchingDetectors)
{
    std::vector<std::unique_ptr<DonnModel>> channels;
    channels.push_back(
        std::make_unique<DonnModel>(ModelBuilder(smallSpec(), Laser{})
                                        .diffractiveLayers(1)
                                        .detectorGrid(4, 3)
                                        .build()));
    channels.push_back(
        std::make_unique<DonnModel>(ModelBuilder(smallSpec(), Laser{})
                                        .diffractiveLayers(1)
                                        .detectorGrid(9, 2)
                                        .build()));
    EXPECT_THROW(MultiChannelDonn(std::move(channels)),
                 std::invalid_argument);
}

TEST(MultiChannel, LogitsAreChannelSums)
{
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(
            std::make_unique<DonnModel>(ModelBuilder(smallSpec(), Laser{})
                                            .diffractiveLayers(1)
                                            .detectorGrid(4, 3)
                                            .build()));
    std::vector<DonnModel *> raw;
    for (auto &c : channels)
        raw.push_back(c.get());
    MultiChannelDonn model(std::move(channels));

    std::array<RealMap, 3> rgb{RealMap(16, 16, 0.4), RealMap(16, 16, 0.2),
                               RealMap(16, 16, 0.7)};
    std::vector<Field> inputs = model.encode(rgb);
    std::vector<Real> merged = model.inferLogits(inputs);

    std::vector<Real> expected(4, 0.0);
    for (int ch = 0; ch < 3; ++ch) {
        Field u = raw[ch]->inferField(inputs[ch]);
        std::vector<Real> part = raw[ch]->detector().readout(u);
        for (std::size_t k = 0; k < 4; ++k)
            expected[k] += part[k];
    }
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_NEAR(merged[k], expected[k], 1e-9);
}

TEST(DifferentialDetector, ReadoutIsNormalizedDifference)
{
    // One class: positive region covers (0,0)-(0,1), negative (2,0)-(2,1).
    std::vector<DetectorRegion> pos{{0, 0, 1, 2}};
    std::vector<DetectorRegion> neg{{2, 0, 1, 2}};
    DetectorPlane det(pos, neg, 3.0);
    EXPECT_TRUE(det.differential());
    EXPECT_EQ(det.numClasses(), 1u);

    Field u(4, 4, Complex{0, 0});
    u(0, 0) = Complex{2, 0}; // P = 4 + 1 = 5
    u(0, 1) = Complex{0, 1};
    u(2, 0) = Complex{1, 0}; // N = 1
    std::vector<Real> logits = det.readout(u);
    ASSERT_EQ(logits.size(), 1u);
    const Real expected = 3.0 * (5.0 - 1.0) / (5.0 + 1.0 + 1e-12);
    EXPECT_NEAR(logits[0], expected, 1e-9);

    // Same total power in both regions -> logit 0; readoutFromIntensity
    // agrees with the field path.
    u(2, 0) = Complex{0, 2};
    u(2, 1) = Complex{1, 0};
    logits = det.readout(u);
    EXPECT_NEAR(logits[0], 0.0, 1e-9);
    EXPECT_NEAR(det.readoutFromIntensity(u.intensity())[0], logits[0],
                1e-9);
}

TEST(DifferentialDetector, BackwardMatchesFiniteDifference)
{
    auto layout = DetectorPlane::differentialGridLayout(16, 2, 3);
    DetectorPlane det(layout.first, layout.second, 1.7);

    Rng rng(9);
    Field u(16, 16);
    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

    const std::vector<Real> dlogits{0.8, -1.3};
    Field grad;
    det.backwardForInto(u, dlogits, grad);

    // Wirtinger convention: dL/d re(u) = Re(G), dL/d im(u) = Im(G),
    // with L = sum_k dlogits[k] * logit_k.
    auto lossAt = [&](const Field &field) {
        std::vector<Real> logits = det.readout(field);
        Real total = 0;
        for (std::size_t k = 0; k < logits.size(); ++k)
            total += dlogits[k] * logits[k];
        return total;
    };
    const Real h = 1e-6;
    // Probe pixels inside the first positive and negative regions plus
    // one outside any region.
    std::vector<std::pair<std::size_t, std::size_t>> probes{
        {layout.first[0].r0, layout.first[0].c0},
        {layout.second[0].r0, layout.second[0].c0},
        {15, 15}};
    for (auto [r, c] : probes) {
        Field up = u, dn = u;
        up(r, c) += Complex{h, 0};
        dn(r, c) -= Complex{h, 0};
        Real d_re = (lossAt(up) - lossAt(dn)) / (2 * h);
        EXPECT_NEAR(d_re, std::real(grad(r, c)), 1e-5)
            << "re at " << r << "," << c;
        up = u;
        dn = u;
        up(r, c) += Complex{0, h};
        dn(r, c) -= Complex{0, h};
        Real d_im = (lossAt(up) - lossAt(dn)) / (2 * h);
        EXPECT_NEAR(d_im, std::imag(grad(r, c)), 1e-5)
            << "im at " << r << "," << c;
    }
}

TEST(DifferentialDetector, SerializationRoundTripPreservesMode)
{
    Rng rng(3);
    auto layout = DetectorPlane::differentialGridLayout(16, 4, 3);
    DonnModel model = ModelBuilder(smallSpec(), Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(4, 3) // placeholder, replaced
                          .build();
    model.setDetector(
        DetectorPlane(layout.first, layout.second, 2.5));

    DonnModel back = DonnModel::fromJson(model.toJson());
    EXPECT_TRUE(back.detector().differential());
    EXPECT_EQ(back.detector().negRegions().size(), 4u);
    EXPECT_DOUBLE_EQ(back.detector().ampFactor(), 2.5);

    RealMap frame = makeSynthDigits(1, 8).images[0];
    Field u = model.encode(frame);
    EXPECT_EQ(model.detector().readout(model.inferField(u)),
              back.detector().readout(back.inferField(u)));
}

TEST(DifferentialDetector, MismatchedPairCountsThrow)
{
    std::vector<DetectorRegion> pos{{0, 0, 2, 2}, {4, 0, 2, 2}};
    std::vector<DetectorRegion> neg{{8, 0, 2, 2}};
    EXPECT_THROW(DetectorPlane(pos, neg), std::invalid_argument);
}

TEST(TopK, ContainsTargetSemantics)
{
    std::vector<Real> logits{0.1, 0.9, 0.5, 0.3};
    EXPECT_TRUE(topKContains(logits, 1, 1));
    EXPECT_FALSE(topKContains(logits, 0, 1));
    EXPECT_TRUE(topKContains(logits, 2, 2));
    EXPECT_TRUE(topKContains(logits, 0, 4));
}

TEST(Optimizers, SgdMomentumMovesParameters)
{
    std::vector<Real> value{1.0, 2.0};
    std::vector<Real> grad{0.5, -0.5};
    Sgd sgd(0.1, 0.9);
    sgd.attach({ParamView{"p", &value, &grad}});
    sgd.step();
    EXPECT_NEAR(value[0], 0.95, 1e-12);
    EXPECT_NEAR(value[1], 2.05, 1e-12);
    sgd.step(); // momentum compounds
    EXPECT_NEAR(value[0], 0.95 - 0.095, 1e-12);
}

TEST(Optimizers, AdamConvergesOnQuadratic)
{
    // Minimize (x - 3)^2 by gradient descent with Adam.
    std::vector<Real> x{0.0};
    std::vector<Real> g{0.0};
    Adam adam(0.1);
    adam.attach({ParamView{"x", &x, &g}});
    for (int i = 0; i < 300; ++i) {
        g[0] = 2 * (x[0] - 3.0);
        adam.step();
    }
    EXPECT_NEAR(x[0], 3.0, 0.05);
}

TEST(Optimizers, ZeroGradClearsAllGradients)
{
    std::vector<Real> v1{1.0}, g1{5.0}, v2{2.0, 3.0}, g2{6.0, 7.0};
    Adam adam(0.1);
    adam.attach({ParamView{"a", &v1, &g1}, ParamView{"b", &v2, &g2}});
    adam.zeroGrad();
    EXPECT_DOUBLE_EQ(g1[0], 0.0);
    EXPECT_DOUBLE_EQ(g2[1], 0.0);
}

} // namespace
} // namespace lightridge
