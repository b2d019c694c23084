/**
 * @file
 * Declarative experiment front end: ExperimentSpec JSON round-trips,
 * strict-parsing error paths (unknown fields, bad layer kinds and values,
 * bad enum strings), the one layer schema specs and checkpoints share
 * (LayerSchema), and a miniature end-to-end runExperiment() pass per task
 * kind.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "api/experiment.hpp"
#include "core/skip.hpp"
#include "data/shard.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "hardware/deploy.hpp"

namespace lightridge {
namespace {

ExperimentSpec
tinySpec()
{
    ExperimentSpec spec;
    spec.name = "tiny";
    spec.task = "classification";
    spec.dataset = "digits";
    spec.data.train_samples = 40;
    spec.data.test_samples = 20;
    spec.data.seed = 1;
    spec.system.size = 16;
    spec.system.distance = 0; // resolve via half-cone rule
    spec.model_seed = 5;
    Json layer;
    layer["kind"] = Json("diffractive");
    layer["count"] = Json(std::size_t{2});
    spec.layers.push(layer);
    spec.detector.classes = 10;
    spec.detector.det_size = 1;
    spec.train.epochs = 1;
    spec.train.batch = 8;
    spec.train.workers = 1;
    return spec;
}

TEST(ExperimentSpec, JsonRoundTripIsLossless)
{
    ExperimentSpec spec = tinySpec();
    spec.train.loss = LossKind::CrossEntropy;
    spec.system.approx = Diffraction::Fresnel;

    Json j = spec.toJson();
    ExperimentSpec back = ExperimentSpec::fromJson(j);
    EXPECT_EQ(back.toJson().dump(), j.dump());

    EXPECT_EQ(back.name, "tiny");
    EXPECT_EQ(back.task, "classification");
    EXPECT_EQ(back.data.train_samples, 40u);
    EXPECT_EQ(back.system.size, 16u);
    EXPECT_EQ(back.system.approx, Diffraction::Fresnel);
    EXPECT_EQ(back.train.loss, LossKind::CrossEntropy);
    EXPECT_EQ(back.detector.classes, 10u);
    ASSERT_TRUE(back.layers.isArray());
    EXPECT_EQ(back.layers.asArray().size(), 1u);
}

TEST(ExperimentSpec, UnknownTopLevelFieldThrows)
{
    Json j = tinySpec().toJson();
    j["epochz"] = Json(3); // typo'd key
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, UnknownTrainFieldThrows)
{
    Json j = tinySpec().toJson();
    j["train"]["learning_rate"] = Json(0.1); // not a TrainConfig key
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, UnknownLayerKindThrows)
{
    Json j = tinySpec().toJson();
    Json bad;
    bad["kind"] = Json("warp_drive");
    j["layers"].push(bad);
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, UnknownLayerParamThrows)
{
    // Strictness reaches inside layer entries: a typo'd parameter fails
    // at parse time, not at build time.
    Json j = tinySpec().toJson();
    j["layers"].asArray()[0]["cout"] = Json(3); // typo of "count"
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    Json nested = tinySpec().toJson();
    Json inner_bad;
    inner_bad["kind"] = Json("diffractive");
    inner_bad["gama"] = Json(1.0); // typo inside a skip interior
    Json inner;
    inner.push(inner_bad);
    Json skip;
    skip["kind"] = Json("skip");
    skip["inner"] = std::move(inner);
    nested["layers"].push(skip);
    EXPECT_THROW(ExperimentSpec::fromJson(nested), JsonError);
}

TEST(ExperimentSpec, BadLayerValuesThrowNamingTheKey)
{
    // Each value fails where it enters, as a JsonError naming its key:
    // when the spec is parsed, and when a spec that skipped parsing is
    // built (the layer constructors would throw std::invalid_argument).
    auto entry = [](const char *text) { return Json::parse(text); };
    Json long_lut = entry(R"({"kind": "codesign"})");
    for (int i = 0; i < 257; ++i)
        long_lut["lut"].push(entry("[1, 0]"));
    Json inf_eps = entry(R"({"kind": "layernorm"})");
    inf_eps["eps"] = Json(std::numeric_limits<double>::infinity());
    const struct
    {
        const char *key;
        Json layer;
    } bad[] = {
        {"tau", entry(R"({"kind": "codesign", "tau": 0})")},
        {"tau", entry(R"({"kind": "codesign", "tau": -0.5})")},
        {"levels", entry(R"({"kind": "codesign", "levels": 0})")},
        {"levels", entry(R"({"kind": "codesign", "levels": 2.5})")},
        {"levels", entry(R"({"kind": "codesign", "levels": 257})")},
        {"levels", entry(R"({"kind": "codesign", "levels": 1e12})")},
        {"lut", entry(R"({"kind": "codesign", "lut": []})")},
        {"lut", long_lut},
        {"levels", entry(R"({"kind": "codesign", "levels": 4,
                             "lut": [[1, 0]]})")},
        {"inner", entry(R"({"kind": "skip", "inner": []})")},
        {"count", entry(R"({"kind": "diffractive", "count": 0})")},
        {"count", entry(R"({"kind": "diffractive", "count": 2,
                            "phase": []})")},
        {"modulation", entry(R"({"kind": "fixed"})")},
        {"eps", entry(R"({"kind": "layernorm", "eps": -1})")},
        {"eps", entry(R"({"kind": "layernorm", "eps": 0})")},
        {"eps", inf_eps},
        {"gama", entry(R"({"kind": "skip", "inner": [
                            {"kind": "codesign", "gama": 1}]})")},
    };
    for (const auto &[key, layer] : bad) {
        SCOPED_TRACE(layer.dump());
        ExperimentSpec spec = tinySpec();
        spec.layers = Json();
        spec.layers.push(layer);
        auto expectNamed = [key = key](const std::function<void()> &read) {
            try {
                read();
                ADD_FAILURE() << "expected JsonError";
            } catch (const JsonError &e) {
                EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                    << e.what();
            }
        };
        expectNamed([&] { ExperimentSpec::fromJson(spec.toJson()); });
        Rng rng(1);
        expectNamed([&] { buildSpecModel(spec, 10, &rng); });
    }
}

TEST(LayerSchema, SkipShortcutCountsHopsNotEntries)
{
    // LayerNorm is the identity at inference, so a layernorm inside the
    // skip interior must not change the shortcut's optical path length:
    // inference through both specs is bitwise identical. (Counting
    // entries instead of hops would give the first spec a 4-hop
    // shortcut.)
    auto buildWith = [](bool norm_inside) {
        ExperimentSpec spec = tinySpec();
        spec.layers = Json();
        Json diff;
        diff["kind"] = Json("diffractive");
        diff["count"] = Json(std::size_t{3});
        Json inner;
        inner.push(diff);
        if (norm_inside) {
            Json norm;
            norm["kind"] = Json("layernorm");
            inner.push(norm);
        }
        Json skip;
        skip["kind"] = Json("skip");
        skip["inner"] = std::move(inner);
        spec.layers.push(skip);
        Rng rng(11);
        return buildSpecModel(spec, 10, &rng);
    };

    DonnModel with_norm = buildWith(true);
    DonnModel without_norm = buildWith(false);

    RealMap image(16, 16, 0.0);
    image(8, 8) = 1.0;
    Field a = with_norm.inferField(with_norm.encode(image));
    Field b = without_norm.inferField(without_norm.encode(image));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].real(), b[i].real());
        EXPECT_EQ(a[i].imag(), b[i].imag());
    }
}

TEST(ExperimentSpec, BadEnumStringsThrow)
{
    {
        Json j = tinySpec().toJson();
        j["task"] = Json("regression");
        EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
    }
    {
        Json j = tinySpec().toJson();
        j["system"]["approx"] = Json("geometric");
        EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
    }
    {
        Json j = tinySpec().toJson();
        j["train"]["loss"] = Json("hinge");
        EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
    }
}

TEST(ExperimentSpec, OutOfRangeIntegersThrow)
{
    // Each used to be cast from a double unchecked: batch 0 divided by
    // zero in the serial loop (SIGFPE), size -1 segfaulted, epochs 1e300
    // wrapped to INT_MIN and trained nothing, workers -3 wrapped to
    // 2^64 - 3.
    const struct
    {
        const char *object;
        const char *key;
        double value;
    } bad[] = {
        {"train", "batch", 0},      {"system", "size", -1},
        {"system", "size", 0},      {"train", "epochs", 1e300},
        {"train", "epochs", -1},    {"train", "workers", -3},
        {"train", "seed", 0.5},     {"train", "seed", 1.8446744073709552e19},
        {"data", "train", 1e300},   {"data", "seed", -1},
        {"detector", "det_size", 2.5},
    };
    for (const auto &[object, key, value] : bad) {
        SCOPED_TRACE(std::string(object) + "." + key);
        Json j = tinySpec().toJson();
        j[object][key] = Json(value);
        try {
            ExperimentSpec::fromJson(j);
            ADD_FAILURE() << "expected JsonError";
        } catch (const JsonError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    Json j = tinySpec().toJson();
    j["model_seed"] = Json(-1.0);
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // The checked reads still take every value a spec can mean.
    j = tinySpec().toJson();
    j["train"]["epochs"] = Json(0);
    j["train"]["workers"] = Json(0);
    j["train"]["seed"] = Json(1152921504606846976.0); // 2^60, exact
    ExperimentSpec spec = ExperimentSpec::fromJson(j);
    EXPECT_EQ(spec.train.epochs, 0);
    EXPECT_EQ(spec.train.workers, 0u);
    EXPECT_EQ(spec.train.seed, 1ull << 60);
}

TEST(ExperimentSpec, ResolvedSystemAppliesHalfConeRule)
{
    ExperimentSpec spec = tinySpec();
    SystemSpec resolved = spec.resolvedSystem();
    EXPECT_GT(resolved.distance, 0.0);
}

TEST(LayerSchema, BuildsEveryKindAndRejectsUnknown)
{
    // One spec entry of every kind a model can hold; a fixed entry is
    // valid only with its table, here 2 * 16 * 16 numbers of 1 + 0j.
    Json fixed;
    fixed["kind"] = Json("fixed");
    for (std::size_t i = 0; i < 16 * 16; ++i) {
        fixed["modulation"].push(Json(1.0));
        fixed["modulation"].push(Json(0.0));
    }
    Json j = tinySpec().toJson();
    j["layers"] = Json::parse(R"([
        {"kind": "diffractive", "count": 2, "gamma": 0.9},
        {"kind": "codesign", "levels": 8, "tau": 0.5},
        {"kind": "layernorm", "eps": 1e-9, "subtract_mean": true},
        {"kind": "skip", "inner": [{"kind": "diffractive"}],
         "alpha": 0.6, "beta": 0.8}])");
    j["layers"].push(fixed);
    ExperimentSpec spec = ExperimentSpec::fromJson(j);
    Rng rng(1);
    DonnModel model = buildSpecModel(spec, 10, &rng);
    const char *kinds[] = {"diffractive", "diffractive", "codesign",
                           "layernorm",   "skip",        "fixed"};
    ASSERT_EQ(model.depth(), 6u);
    for (std::size_t i = 0; i < model.depth(); ++i)
        EXPECT_EQ(model.layer(i)->kind(), kinds[i]);
    EXPECT_EQ(model.detector().numClasses(), 10u);

    Json bad;
    bad["kind"] = Json("warp_drive");
    spec.layers.push(bad);
    try {
        buildSpecModel(spec, 10, &rng);
        ADD_FAILURE() << "unknown kind built";
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("warp_drive"),
                  std::string::npos);
    }
}

TEST(LayerSchema, SavedLayersBuildAsSpecLayers)
{
    // A saved model's layers array is a valid spec architecture: the
    // entries carry their parameters, so the build draws nothing and
    // inference is bitwise the saved model's.
    ExperimentSpec spec = tinySpec();
    spec.layers = Json::parse(R"([
        {"kind": "diffractive", "count": 2},
        {"kind": "codesign", "count": 2, "levels": 8, "tau": 0.5,
         "gamma": 0.9},
        {"kind": "skip", "inner": [{"kind": "diffractive"},
                                   {"kind": "layernorm"}]}])");
    Rng rng(8);
    DonnModel trained = buildSpecModel(spec, 10, &rng);
    for (std::size_t i : {std::size_t{2}, std::size_t{3}}) // logits start 0
        for (Real &logit : *trained.layer(i)->params().front().value)
            logit = rng.uniform(-1.0, 1.0);
    Rng fab(9);
    DonnModel deployed =
        deployRaw(buildSpecModel(tinySpec(), 10, &rng),
                  SlmDevice::idealPhaseOnly(16),
                  FabricationVariation{0.05, 0.02}, &fab);

    RealMap image(16, 16, 0.1);
    image(5, 9) = 1.0;
    for (const DonnModel *saved : {&trained, &deployed}) {
        ExperimentSpec rebuilt = tinySpec();
        rebuilt.layers = Json::parse(saved->toJson().dump()).at("layers");
        rebuilt = ExperimentSpec::fromJson(rebuilt.toJson());
        Rng other(99);
        DonnModel built = buildSpecModel(rebuilt, 10, &other);
        SCOPED_TRACE(built.layer(0)->kind());
        EXPECT_EQ(built.toJson().at("layers").dump(),
                  saved->toJson().at("layers").dump());
        Field a = saved->inferField(saved->encode(image));
        Field b = built.inferField(built.encode(image));
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)),
                  0);
    }
}

TEST(LayerSchema, SkipSpecNestsInnerLayers)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "segmentation";
    spec.dataset = "city";
    spec.layers = Json();
    Json inner_diff;
    inner_diff["kind"] = Json("diffractive");
    inner_diff["count"] = Json(std::size_t{3});
    Json inner;
    inner.push(inner_diff);
    Json skip;
    skip["kind"] = Json("skip");
    skip["inner"] = std::move(inner);
    spec.layers.push(skip);
    Json norm;
    norm["kind"] = Json("layernorm");
    spec.layers.push(norm);

    Rng rng(1);
    DonnModel model = buildSpecModel(spec, 2, &rng);
    EXPECT_EQ(model.depth(), 2u); // skip block + layernorm
    EXPECT_EQ(model.layer(0)->kind(), "skip");
    EXPECT_EQ(model.layer(1)->kind(), "layernorm");
}

TEST(LayerSchema, SkipWithoutSplitIsHalfSplitInSpecsAndCheckpoints)
{
    // A skip without alpha/beta is the 50:50 splitter whether a spec or a
    // checkpoint holds it.
    ExperimentSpec spec = tinySpec();
    spec.layers = Json::parse(
        R"([{"kind": "skip", "inner": [{"kind": "diffractive"}]}])");
    Rng rng(3);
    DonnModel built = buildSpecModel(spec, 10, &rng);
    Json saved = built.toJson();
    Json::Object &skip = saved["layers"].asArray()[0].asObject();
    skip.erase("alpha");
    skip.erase("beta");
    DonnModel loaded = DonnModel::fromJson(saved);
    for (const DonnModel *model : {&built, &loaded}) {
        const Json split = model->layer(0)->toJson();
        EXPECT_EQ(split.at("alpha").asNumber(), OpticalSkipLayer::kHalfSplit);
        EXPECT_EQ(split.at("beta").asNumber(), OpticalSkipLayer::kHalfSplit);
    }
}

TEST(LayerSchema, CheckpointsLoadEveryLayerKindTheySave)
{
    // A checkpoint loads every layer kind a model saves, at any depth: a
    // layernorm or a nested skip inside a skip interior, and a deployed
    // model's fixed layers. Loading rebuilds each skip shortcut from the
    // interior, so inference is bitwise unchanged.
    auto diffractive = [](std::size_t count) {
        Json j;
        j["kind"] = Json("diffractive");
        j["count"] = Json(count);
        return j;
    };
    auto skipOf = [](std::vector<Json> entries) {
        Json inner;
        for (Json &entry : entries)
            inner.push(std::move(entry));
        Json j;
        j["kind"] = Json("skip");
        j["inner"] = std::move(inner);
        return j;
    };
    Json norm;
    norm["kind"] = Json("layernorm");
    Json norm_inside;
    norm_inside.push(skipOf({diffractive(2), norm}));
    Json nested;
    nested.push(skipOf({diffractive(1), skipOf({diffractive(2)})}));

    const std::string path = "api_layer_kinds_test.json";
    auto roundTrip = [&](const DonnModel &model) {
        ASSERT_TRUE(model.save(path));
        DonnModel loaded = DonnModel::load(path);
        std::remove(path.c_str());
        RealMap image(16, 16, 0.1);
        image(5, 9) = 1.0;
        Field a = model.inferField(model.encode(image));
        Field b = loaded.inferField(loaded.encode(image));
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)),
                  0);
    };
    for (const Json &layers : {norm_inside, nested}) {
        SCOPED_TRACE(layers.dump());
        ExperimentSpec spec = tinySpec();
        spec.layers = layers;
        Rng rng(3);
        roundTrip(buildSpecModel(spec, 10, &rng));
    }

    Rng rng(4);
    DonnModel raw = buildSpecModel(tinySpec(), 10, &rng);
    Rng fab(5);
    roundTrip(deployRaw(raw, SlmDevice::idealPhaseOnly(16),
                        FabricationVariation{0.05, 0.02}, &fab));
}

template <typename L>
concept SetsGamma = requires(L &layer) { layer.setGamma(0.5); };

TEST(LayerSchema, DeployedTablesHoldTheirGamma)
{
    // deployRaw folds gamma into each table, so a fixed layer's gamma is
    // the constant 1: it is not saved, it has no setGamma, and
    // applyModelGamma leaves a deployed model's output alone.
    static_assert(SetsGamma<DiffractiveLayer> && SetsGamma<CodesignLayer> &&
                  !SetsGamma<FixedModulationLayer>);
    Rng rng(6);
    DonnModel raw = buildSpecModel(tinySpec(), 10, &rng);
    applyModelGamma(raw, 0.9);
    DonnModel hw = deployRaw(raw, SlmDevice::idealPhaseOnly(16),
                             FabricationVariation::none(), nullptr);
    RealMap image(16, 16, 0.1);
    image(5, 9) = 1.0;
    const Field before = hw.inferField(hw.encode(image));
    applyModelGamma(hw, 0.5);
    const Field after = hw.inferField(hw.encode(image));
    ASSERT_EQ(before.size(), after.size());
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(Complex)),
              0);

    auto *fixed = dynamic_cast<FixedModulationLayer *>(hw.layer(0));
    ASSERT_NE(fixed, nullptr);
    EXPECT_EQ(fixed->gamma(), 1.0);
    EXPECT_FALSE(fixed->toJson().has("gamma"));
}

TEST(RunExperiment, ClassificationEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_GE(result.final_metrics.primary, 0.0);
    EXPECT_LE(result.final_metrics.primary, 1.0);
    EXPECT_GE(result.final_metrics.top3, result.final_metrics.primary);
    EXPECT_EQ(result.num_classes, 10u);

    // The report must itself be valid, parseable JSON with the spec echo.
    Json report = result.report(spec);
    Json parsed = Json::parse(report.dump());
    EXPECT_EQ(parsed.at("spec").at("name").asString(), "tiny");
    EXPECT_EQ(parsed.at("epochs").asArray().size(), 1u);
    EXPECT_TRUE(parsed.at("final").has("accuracy"));
    EXPECT_NEAR(parsed.at("final").at("chance").asNumber(), 0.1, 1e-12);
}

TEST(RunExperiment, SegmentationEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "segmentation";
    spec.dataset = "city";
    spec.data.train_samples = 10;
    spec.data.test_samples = 4;
    spec.data.image_size = 16;
    spec.layers = Json(); // task-default architecture (skip + layernorm)
    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_GE(result.final_metrics.primary, 0.0);
    EXPECT_LE(result.final_metrics.primary, 1.0);
    Json report = result.report(spec);
    EXPECT_TRUE(report.at("final").has("iou"));
    EXPECT_TRUE(report.at("final").has("mse"));
}

TEST(RunExperiment, RgbEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "rgb";
    spec.dataset = "scenes";
    spec.data.train_samples = 12;
    spec.data.test_samples = 6;
    spec.data.image_size = 16;
    spec.detector.classes = 0; // dataset default (6 scene classes)
    spec.detector.det_size = 1;
    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_EQ(result.num_classes, 6u);
    EXPECT_GE(result.final_metrics.top3, result.final_metrics.primary);
}

TEST(RunExperiment, MismatchedTaskDatasetThrows)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "segmentation";
    spec.dataset = "digits";
    EXPECT_THROW(runExperiment(spec), JsonError);
}

TEST(ExperimentSpec, DetectorModeRoundTripAndValidation)
{
    ExperimentSpec spec = tinySpec();
    spec.detector.mode = "differential";
    ExperimentSpec back = ExperimentSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.detector.mode, "differential");

    Json j = spec.toJson();
    j["detector"]["mode"] = Json("bogus");
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(RunExperiment, DifferentialDetectionEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    spec.detector.mode = "differential";
    spec.detector.det_size = 2; // 20 paired regions on a 16-plane

    Rng rng(spec.model_seed);
    DonnModel model = buildSpecModel(spec, 10, &rng);
    EXPECT_TRUE(model.detector().differential());
    EXPECT_EQ(model.detector().numClasses(), 10u);
    EXPECT_EQ(model.detector().negRegions().size(), 10u);

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_GE(result.final_metrics.primary, 0.0);
    EXPECT_LE(result.final_metrics.primary, 1.0);
}

TEST(RunExperiment, ReportRecordsExecutionMode)
{
    ExperimentSpec spec = tinySpec();
    spec.train.workers = 1;
    ExperimentResult result = runExperiment(spec);
    EXPECT_EQ(result.workers_used, 1u);
    EXPECT_EQ(result.workers_requested, 1u);

    Json report = result.report(spec);
    const Json &execution = report.at("execution");
    EXPECT_EQ(execution.at("workers").asInt(), 1);
    EXPECT_EQ(execution.at("workers_requested").asInt(), 1);
    EXPECT_TRUE(execution.has("hw_threads"));
}

TEST(RunExperiment, NonFiniteLossThrowsInsteadOfReportingNan)
{
    // A step size this large drives the phases to inf within a few
    // batches; the run must stop with an error, not report "nan".
    ExperimentSpec spec = tinySpec();
    spec.train.lr = 1e308;
    spec.train.epochs = 2;
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(workers);
        spec.train.workers = workers;
        try {
            runExperiment(spec);
            ADD_FAILURE() << "expected a non-finite loss error";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("non-finite training loss"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ExperimentSpec, DatasetObjectParsesShardedSource)
{
    Json j = tinySpec().toJson();
    Json ds;
    ds["kind"] = Json("sharded");
    ds["manifest"] = Json(std::string("packed/train/manifest.json"));
    ds["test_manifest"] = Json(std::string("packed/test/manifest.json"));
    ds["prefetch"] = Json(std::size_t{2});
    j["dataset"] = ds;

    ExperimentSpec spec = ExperimentSpec::fromJson(j);
    EXPECT_EQ(spec.source.kind, "sharded");
    EXPECT_EQ(spec.source.manifest, "packed/train/manifest.json");
    EXPECT_EQ(spec.source.test_manifest, "packed/test/manifest.json");
    EXPECT_EQ(spec.source.prefetch, 2u);
    EXPECT_FALSE(spec.source.preload);

    // Sharded specs round-trip through the object form.
    ExperimentSpec back = ExperimentSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.toJson().dump(), spec.toJson().dump());
}

TEST(ExperimentSpec, DatasetObjectValidationErrors)
{
    // kind "sharded" without a manifest.
    Json j = tinySpec().toJson();
    Json ds;
    ds["kind"] = Json("sharded");
    j["dataset"] = ds;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // "name" on a sharded block.
    ds["manifest"] = Json(std::string("m.json"));
    ds["name"] = Json(std::string("digits"));
    j["dataset"] = ds;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Unknown dataset kind.
    Json bad;
    bad["kind"] = Json(std::string("tape"));
    j["dataset"] = bad;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Sharded keys on a synth block.
    Json synth;
    synth["kind"] = Json(std::string("synth"));
    synth["prefetch"] = Json(std::size_t{1});
    j["dataset"] = synth;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Unknown key inside the block.
    Json unknown;
    unknown["kind"] = Json(std::string("sharded"));
    unknown["manifest"] = Json(std::string("m.json"));
    unknown["surprise"] = Json(true);
    j["dataset"] = unknown;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, DatasetObjectSynthNameStillWorks)
{
    Json j = tinySpec().toJson();
    Json ds;
    ds["kind"] = Json(std::string("synth"));
    ds["name"] = Json(std::string("fashion"));
    j["dataset"] = ds;
    ExperimentSpec spec = ExperimentSpec::fromJson(j);
    EXPECT_EQ(spec.source.kind, "synth");
    EXPECT_EQ(spec.dataset, "fashion");
    // Synth specs keep emitting the historical string form.
    EXPECT_EQ(spec.toJson().at("dataset").asString(), "fashion");
}

/** Pack a train split in shards of 8 samples and a one-shard test split. */
template <typename Dataset>
void
packSplits(const Dataset &train, const Dataset &test, const std::string &base)
{
    PackOptions options;
    options.shard_samples = 8;
    writeShards(train, base + "/train", options);
    writeShards(test, base + "/test");
}

TEST(RunExperiment, ShardedDatasetEndToEndRecordsSource)
{
    char tmpl[] = "/tmp/lightridge_api_XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string base = dir;

    // Each task reads its own sample kind: class, seg and rgb shards.
    CityConfig city;
    city.image_size = 16;
    SceneConfig scenes;
    scenes.image_size = 16;
    packSplits(makeSynthDigits(24, 7), makeSynthDigits(8, 8),
               base + "/classification");
    packSplits(makeSynthCity(24, 7, city), makeSynthCity(8, 8, city),
               base + "/segmentation");
    packSplits(makeSynthScenes(24, 7, scenes), makeSynthScenes(8, 8, scenes),
               base + "/rgb");

    for (const std::string task : {"classification", "segmentation", "rgb"}) {
        SCOPED_TRACE(task);
        ExperimentSpec spec = tinySpec();
        spec.task = task;
        if (task == "segmentation")
            spec.layers = Json(); // task-default stack (skip + layernorm)
        if (task == "rgb")
            spec.detector.classes = 0; // the manifest's 6 scene classes
        spec.source.kind = "sharded";
        spec.source.manifest = base + "/" + task + "/train/manifest.json";
        spec.source.test_manifest = base + "/" + task + "/test/manifest.json";
        spec.source.prefetch = 1;
        spec.data.train_samples = 0; // unused by sharded sources
        spec.train.epochs = 2;

        for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
            SCOPED_TRACE(workers);
            spec.train.workers = workers;
            spec.source.preload = false;
            ExperimentResult streamed = runExperiment(spec);
            EXPECT_EQ(streamed.data_source, "sharded");
            EXPECT_EQ(streamed.data_shards, 3u);
            EXPECT_EQ(streamed.data_prefetch, 1u);
            EXPECT_GT(streamed.data_bytes_read, 0u);
            EXPECT_EQ(streamed.workers_used, workers);
            if (task != "segmentation") {
                EXPECT_EQ(streamed.num_classes, task == "rgb" ? 6u : 10u);
            }
            ASSERT_EQ(streamed.history.size(), 2u);

            Json report = streamed.report(spec);
            const Json &execution = report.at("execution");
            EXPECT_EQ(execution.at("data_source").asString(), "sharded");
            EXPECT_EQ(execution.at("data_shards").asInt(), 3);
            EXPECT_EQ(execution.at("data_prefetch").asInt(), 1);
            EXPECT_TRUE(execution.has("data_bytes_read"));

            // Preload mode keeps the shard layout: bitwise-identical
            // training in every epoch and the same final metric.
            spec.source.preload = true;
            ExperimentResult preloaded = runExperiment(spec);
            EXPECT_EQ(preloaded.data_source, "memory");
            EXPECT_EQ(preloaded.data_shards, 3u);
            EXPECT_EQ(preloaded.data_bytes_read, 0u);
            ASSERT_EQ(preloaded.history.size(), 2u);
            for (std::size_t e = 0; e < 2; ++e)
                EXPECT_EQ(preloaded.history[e].train_loss,
                          streamed.history[e].train_loss)
                    << "epoch " << e;
            EXPECT_EQ(preloaded.final_metrics.primary,
                      streamed.final_metrics.primary);
            EXPECT_EQ(preloaded.secondary, streamed.secondary);
        }
    }

    std::filesystem::remove_all(base);
}

TEST(RunExperiment, MissingManifestExitsWithDataError)
{
    ExperimentSpec spec = tinySpec();
    spec.source.kind = "sharded";
    spec.source.manifest = "/nonexistent/manifest.json";
    EXPECT_THROW(runExperiment(spec), DataError);
}

TEST(RunExperiment, SaveModelWritesServableCheckpoint)
{
    ExperimentSpec spec = tinySpec();
    const std::string path = "api_saved_model_test.json";
    ExperimentResult result = runExperiment(spec, nullptr, path);
    (void)result;
    DonnModel loaded = DonnModel::load(path);
    EXPECT_EQ(loaded.detector().numClasses(), 10u);
    Json raw = Json::load(path);
    EXPECT_EQ(raw.at("format").asString(), kCheckpointMagic);
    std::remove(path.c_str());
}

} // namespace
} // namespace lightridge
