#include "api/experiment.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "data/shard.hpp"
#include "data/stream.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_fashion.hpp"
#include "data/synth_scenes.hpp"
#include "utils/log.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

namespace lightridge {

namespace {

/** Optional integer member >= `min` (checked; see Json::asInteger). */
std::size_t
sizeOr(const Json &j, const std::string &key, std::size_t fallback,
       std::size_t min = 0)
{
    if (!j.has(key))
        return fallback;
    return static_cast<std::size_t>(j.at(key).asInteger(key, min));
}

/** Optional seed member: any integer a uint64_t holds. */
uint64_t
seedOr(const Json &j, const std::string &key, uint64_t fallback)
{
    return j.has(key) ? j.at(key).asInteger(key) : fallback;
}

// ---- enum <-> string maps ------------------------------------------------

const char *
approxTag(Diffraction d)
{
    switch (d) {
    case Diffraction::Fresnel:
        return "fresnel";
    case Diffraction::Fraunhofer:
        return "fraunhofer";
    default:
        return "rayleigh_sommerfeld";
    }
}

Diffraction
approxFromTag(const std::string &name)
{
    if (name == "rayleigh_sommerfeld")
        return Diffraction::RayleighSommerfeld;
    if (name == "fresnel")
        return Diffraction::Fresnel;
    if (name == "fraunhofer")
        return Diffraction::Fraunhofer;
    throw JsonError("unknown diffraction approximation: " + name);
}

const char *
methodName(PropagationMethod m)
{
    return m == PropagationMethod::ImpulseResponse ? "impulse_response"
                                                   : "transfer_function";
}

PropagationMethod
methodFromName(const std::string &name)
{
    if (name == "transfer_function")
        return PropagationMethod::TransferFunction;
    if (name == "impulse_response")
        return PropagationMethod::ImpulseResponse;
    throw JsonError("unknown propagation method: " + name);
}

const char *
lossName(LossKind loss)
{
    return loss == LossKind::CrossEntropy ? "cross_entropy" : "softmax_mse";
}

LossKind
lossFromName(const std::string &name)
{
    if (name == "softmax_mse")
        return LossKind::SoftmaxMse;
    if (name == "cross_entropy")
        return LossKind::CrossEntropy;
    throw JsonError("unknown loss kind: " + name);
}

} // namespace

// --------------------------------------------------------------------------
// TrainConfig <-> JSON
// --------------------------------------------------------------------------

Json
trainConfigToJson(const TrainConfig &config)
{
    Json j;
    j["epochs"] = Json(config.epochs);
    j["batch"] = Json(config.batch);
    j["lr"] = Json(config.lr);
    j["loss"] = Json(lossName(config.loss));
    j["seed"] = Json(static_cast<std::size_t>(config.seed));
    j["shuffle"] = Json(config.shuffle);
    j["calibrate"] = Json(config.calibrate);
    j["calib_target"] = Json(config.calib_target);
    j["calib_probe"] = Json(config.calib_probe);
    j["gamma"] = Json(config.gamma);
    j["tau_start"] = Json(config.tau_start);
    j["tau_end"] = Json(config.tau_end);
    j["workers"] = Json(config.workers);
    j["dev_eval_every_batches"] = Json(config.dev_eval_every_batches);
    j["verbose"] = Json(config.verbose);
    return j;
}

TrainConfig
trainConfigFromJson(const Json &j)
{
    expectKeys(j,
               {"epochs", "batch", "lr", "loss", "seed", "shuffle",
                "calibrate", "calib_target", "calib_probe", "gamma",
                "tau_start", "tau_end", "workers",
                "dev_eval_every_batches", "verbose"},
               "train config");
    TrainConfig config;
    if (j.has("epochs"))
        config.epochs = static_cast<int>(j.at("epochs").asInteger(
            "epochs", 0, std::numeric_limits<int>::max()));
    config.batch = sizeOr(j, "batch", config.batch, 1);
    config.lr = j.numberOr("lr", config.lr);
    if (j.has("loss"))
        config.loss = lossFromName(j.at("loss").asString());
    config.seed = seedOr(j, "seed", config.seed);
    if (j.has("shuffle"))
        config.shuffle = j.at("shuffle").asBool();
    if (j.has("calibrate"))
        config.calibrate = j.at("calibrate").asBool();
    config.calib_target = j.numberOr("calib_target", config.calib_target);
    config.calib_probe = sizeOr(j, "calib_probe", config.calib_probe);
    config.gamma = j.numberOr("gamma", config.gamma);
    config.tau_start = j.numberOr("tau_start", config.tau_start);
    config.tau_end = j.numberOr("tau_end", config.tau_end);
    config.workers = sizeOr(j, "workers", config.workers);
    config.dev_eval_every_batches = sizeOr(j, "dev_eval_every_batches",
                                           config.dev_eval_every_batches);
    if (j.has("verbose"))
        config.verbose = j.at("verbose").asBool();
    return config;
}

// --------------------------------------------------------------------------
// ExperimentSpec
// --------------------------------------------------------------------------

Json
ExperimentSpec::toJson() const
{
    Json j;
    j["name"] = Json(name);
    j["task"] = Json(task);
    if (source.kind == "synth") {
        // The historical string form round-trips untouched.
        j["dataset"] = Json(dataset);
    } else {
        Json ds;
        ds["kind"] = Json(source.kind);
        ds["manifest"] = Json(source.manifest);
        if (!source.test_manifest.empty())
            ds["test_manifest"] = Json(source.test_manifest);
        ds["prefetch"] = Json(source.prefetch);
        if (source.preload)
            ds["preload"] = Json(true);
        j["dataset"] = std::move(ds);
    }

    Json dj;
    dj["train"] = Json(data.train_samples);
    dj["test"] = Json(data.test_samples);
    dj["seed"] = Json(static_cast<std::size_t>(data.seed));
    dj["image_size"] = Json(data.image_size);
    j["data"] = std::move(dj);

    Json sj;
    sj["size"] = Json(system.size);
    sj["pixel"] = Json(system.pixel);
    sj["distance"] = Json(system.distance);
    sj["approx"] = Json(approxTag(system.approx));
    sj["method"] = Json(methodName(system.method));
    sj["pad_factor"] = Json(system.pad_factor);
    j["system"] = std::move(sj);

    j["wavelength"] = Json(wavelength);
    j["model_seed"] = Json(static_cast<std::size_t>(model_seed));
    if (!layers.isNull())
        j["layers"] = layers;

    Json det;
    det["classes"] = Json(detector.classes);
    det["det_size"] = Json(detector.det_size);
    det["mode"] = Json(detector.mode);
    j["detector"] = std::move(det);

    j["train"] = trainConfigToJson(train);
    if (perturbation.active())
        j["perturbation"] = perturbation.toJson();
    return j;
}

ExperimentSpec
ExperimentSpec::fromJson(const Json &j)
{
    expectKeys(j,
               {"name", "task", "dataset", "data", "system", "wavelength",
                "model_seed", "layers", "detector", "train",
                "perturbation"},
               "experiment");
    ExperimentSpec spec;
    if (j.has("name"))
        spec.name = j.at("name").asString();
    if (j.has("task"))
        spec.task = j.at("task").asString();
    if (spec.task != "classification" && spec.task != "segmentation" &&
        spec.task != "rgb")
        throw JsonError("unknown task kind: " + spec.task);
    if (j.has("dataset") && j.at("dataset").isObject()) {
        const Json &ds = j.at("dataset");
        expectKeys(ds,
                   {"kind", "name", "manifest", "test_manifest", "prefetch",
                    "preload"},
                   "dataset");
        if (ds.has("kind"))
            spec.source.kind = ds.at("kind").asString();
        if (spec.source.kind == "sharded") {
            if (ds.has("name"))
                throw JsonError(
                    "dataset: \"name\" only applies to kind \"synth\"");
            if (!ds.has("manifest"))
                throw JsonError(
                    "dataset: kind \"sharded\" requires \"manifest\"");
            spec.source.manifest = ds.at("manifest").asString();
            if (ds.has("test_manifest"))
                spec.source.test_manifest =
                    ds.at("test_manifest").asString();
            spec.source.prefetch =
                sizeOr(ds, "prefetch", spec.source.prefetch);
            if (ds.has("preload"))
                spec.source.preload = ds.at("preload").asBool();
        } else if (spec.source.kind == "synth") {
            if (ds.has("manifest") || ds.has("test_manifest") ||
                ds.has("prefetch") || ds.has("preload"))
                throw JsonError("dataset: manifest/test_manifest/prefetch/"
                                "preload only apply to kind \"sharded\"");
            if (ds.has("name"))
                spec.dataset = ds.at("name").asString();
        } else {
            throw JsonError("unknown dataset kind: " + spec.source.kind);
        }
    } else if (j.has("dataset")) {
        spec.dataset = j.at("dataset").asString();
    }
    if (spec.source.kind == "synth" && spec.dataset != "digits" &&
        spec.dataset != "fashion" && spec.dataset != "city" &&
        spec.dataset != "scenes")
        throw JsonError("unknown dataset: " + spec.dataset);

    if (j.has("data")) {
        const Json &dj = j.at("data");
        expectKeys(dj, {"train", "test", "seed", "image_size"}, "data");
        spec.data.train_samples = sizeOr(dj, "train",
                                         spec.data.train_samples);
        spec.data.test_samples = sizeOr(dj, "test", spec.data.test_samples);
        spec.data.seed = seedOr(dj, "seed", spec.data.seed);
        spec.data.image_size = sizeOr(dj, "image_size",
                                      spec.data.image_size);
    }

    if (j.has("system")) {
        const Json &sj = j.at("system");
        expectKeys(sj,
                   {"size", "pixel", "distance", "approx", "method",
                    "pad_factor"},
                   "system");
        spec.system.size = sizeOr(sj, "size", spec.system.size, 1);
        spec.system.pixel = sj.numberOr("pixel", spec.system.pixel);
        spec.system.distance =
            sj.numberOr("distance", spec.system.distance);
        if (sj.has("approx"))
            spec.system.approx =
                approxFromTag(sj.at("approx").asString());
        if (sj.has("method"))
            spec.system.method = methodFromName(sj.at("method").asString());
        spec.system.pad_factor = sizeOr(sj, "pad_factor",
                                        spec.system.pad_factor);
    }

    spec.wavelength = j.numberOr("wavelength", spec.wavelength);
    spec.model_seed = seedOr(j, "model_seed", spec.model_seed);

    if (j.has("layers")) {
        checkLayersJson(j.at("layers"));
        spec.layers = j.at("layers");
    }

    if (j.has("detector")) {
        const Json &det = j.at("detector");
        expectKeys(det, {"classes", "det_size", "mode"}, "detector");
        spec.detector.classes = sizeOr(det, "classes", 0);
        spec.detector.det_size = sizeOr(det, "det_size", 0);
        if (det.has("mode"))
            spec.detector.mode = det.at("mode").asString();
        if (spec.detector.mode != "intensity" &&
            spec.detector.mode != "differential")
            throw JsonError("unknown detector mode: " + spec.detector.mode);
    }

    if (j.has("train"))
        spec.train = trainConfigFromJson(j.at("train"));
    if (j.has("perturbation"))
        spec.perturbation = PerturbationSpec::fromJson(j.at("perturbation"));
    return spec;
}

ExperimentSpec
ExperimentSpec::load(const std::string &path)
{
    return fromJson(Json::load(path));
}

SystemSpec
ExperimentSpec::resolvedSystem() const
{
    SystemSpec resolved = system;
    if (resolved.distance <= 0)
        resolved.distance =
            idealDistanceHalfCone(resolved.grid(), wavelength);
    return resolved;
}

// --------------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------------

namespace {

/** Task-default architecture when the spec omits "layers". */
Json
defaultLayers(const std::string &task)
{
    Json layers;
    if (task == "segmentation") {
        // Fig. 13 topology: optical skip around the stack + LayerNorm.
        Json inner;
        Json diff;
        diff["kind"] = Json("diffractive");
        diff["count"] = Json(std::size_t{5});
        inner.push(std::move(diff));
        Json skip;
        skip["kind"] = Json("skip");
        skip["inner"] = std::move(inner);
        layers.push(std::move(skip));
        Json norm;
        norm["kind"] = Json("layernorm");
        layers.push(std::move(norm));
    } else {
        Json diff;
        diff["kind"] = Json("diffractive");
        diff["count"] = Json(std::size_t{5});
        layers.push(std::move(diff));
    }
    return layers;
}

Json
epochStatsJson(const EpochStats &stats)
{
    Json j;
    j["epoch"] = Json(stats.epoch);
    j["train_loss"] = Json(stats.train_loss);
    j["train_acc"] = Json(stats.train_acc);
    j["test_acc"] = Json(stats.test_acc);
    j["test_top3"] = Json(stats.test_top3);
    j["seconds"] = Json(stats.seconds);
    if (stats.mid_epoch) {
        j["mid_epoch"] = Json(true);
        j["batch"] = Json(stats.batch);
    }
    return j;
}

/** Generator config with the spec's image size (0 keeps the default). */
template <typename Config>
Config
synthConfig(const ExperimentSpec &spec)
{
    Config config;
    if (spec.data.image_size > 0)
        config.image_size = spec.data.image_size;
    return config;
}

/**
 * A spec's train and test splits and the source training reads. The
 * source may borrow `train`, so the struct stays where it was filled.
 */
template <typename Dataset>
struct SpecData
{
    Dataset train;
    Dataset test;
    bool has_test = false;
    std::size_t num_classes = 0; ///< the manifest's or generator's count
    std::unique_ptr<RecordSource<Dataset>> source;
};

/**
 * Fill `out` from the spec's sharded manifests (streamed, or preloaded
 * with the manifest's shard layout so the epoch order matches the
 * streamed run bitwise), or with `synthesize(samples, seed)`: the train
 * split at data.seed, the test split at data.seed + 1.
 */
template <typename Dataset, typename Synthesize>
void
loadSpecData(const ExperimentSpec &spec, const Synthesize &synthesize,
             SpecData<Dataset> &out)
{
    if (spec.source.kind != "sharded") {
        out.train = synthesize(spec.data.train_samples, spec.data.seed);
        out.test = synthesize(spec.data.test_samples, spec.data.seed + 1);
        out.has_test = true;
        if constexpr (!std::is_same_v<Dataset, SegDataset>)
            out.num_classes = out.train.num_classes;
        out.source = std::make_unique<InMemorySource<Dataset>>(out.train);
        return;
    }
    DatasetManifest manifest = DatasetManifest::load(spec.source.manifest);
    out.num_classes = manifest.num_classes;
    if (!spec.source.test_manifest.empty()) {
        out.test = materialize<Dataset>(
            DatasetManifest::load(spec.source.test_manifest));
        out.has_test = true;
    }
    if (spec.source.preload) {
        out.train = materialize<Dataset>(manifest);
        out.source = std::make_unique<InMemorySource<Dataset>>(
            out.train, manifest.shardSizes());
    } else {
        out.source = std::make_unique<ShardedSource<Dataset>>(
            std::move(manifest), spec.source.prefetch);
    }
}

} // namespace

DonnModel
buildSpecModel(const ExperimentSpec &spec, std::size_t num_classes,
               Rng *rng)
{
    SystemSpec system = spec.resolvedSystem();
    Laser laser;
    laser.wavelength = spec.wavelength;
    DonnModel model(system, laser);
    model.addLayers(
        spec.layers.isNull() ? defaultLayers(spec.task) : spec.layers, rng);

    std::size_t det_size = spec.detector.det_size;
    if (det_size == 0)
        det_size = std::max<std::size_t>(system.size / 10, 1);
    if (spec.detector.mode == "differential") {
        auto layout = DetectorPlane::differentialGridLayout(
            system.size, num_classes, det_size);
        model.setDetector(DetectorPlane(std::move(layout.first),
                                        std::move(layout.second)));
    } else {
        model.setDetector(DetectorPlane(DetectorPlane::gridLayout(
            system.size, num_classes, det_size)));
    }
    return model;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec,
              const Session::Callback &epoch_callback,
              const std::string &save_model_path,
              const RobustnessSweepConfig *robustness_sweep)
{
    if (robustness_sweep != nullptr && spec.task != "classification")
        throw JsonError("robustness sweep requires a classification task, "
                        "got: " + spec.task);
    ExperimentResult result;
    result.name = spec.name;
    result.task = spec.task;
    WallTimer timer;
    Rng rng(spec.model_seed);

    // Record the execution mode actually used, not just what the spec
    // asked for (Session::resolveWorkers is the engine's own rule).
    result.workers_requested = spec.train.workers;
    result.hw_threads = ThreadPool::global().workerCount();

    auto runSession = [&](Task &task) {
        result.workers_used =
            Session::resolveWorkers(spec.train, task.trainSize());
        Session session(task, spec.train);
        if (epoch_callback)
            session.addCallback(epoch_callback);
        result.history = session.fit();
        if (!save_model_path.empty() && !task.save(save_model_path))
            throw std::runtime_error("cannot write model checkpoint: " +
                                     save_model_path);
    };

    // Resolved-source fields for the report's execution block, read off
    // the source after training so bytes_read reflects what actually
    // streamed.
    auto recordSource = [&](const DataSource &source) {
        result.data_source = source.sourceKind();
        result.data_shards = source.shardSizes().size();
        result.data_prefetch = source.prefetchDepth();
        result.data_bytes_read = source.bytesRead();
    };

    if (spec.task == "classification") {
        SpecData<ClassDataset> data;
        loadSpecData(
            spec,
            [&](std::size_t samples, uint64_t seed) {
                if (spec.dataset == "digits")
                    return makeSynthDigits(samples, seed,
                                           synthConfig<DigitConfig>(spec));
                if (spec.dataset == "fashion")
                    return makeSynthFashion(
                        samples, seed, synthConfig<FashionConfig>(spec));
                throw JsonError("classification task needs dataset digits "
                                "or fashion, got: " + spec.dataset);
            },
            data);
        const std::size_t classes = spec.detector.classes > 0
                                        ? spec.detector.classes
                                        : data.num_classes;
        result.num_classes = classes;
        DonnModel model = buildSpecModel(spec, classes, &rng);
        ClassificationTask task(model, *data.source,
                                data.has_test ? &data.test : nullptr);
        task.setPerturbationSpec(spec.perturbation);
        runSession(task);
        recordSource(*data.source);
        result.final_metrics = task.evaluate();
        if (robustness_sweep != nullptr) {
            if (!data.has_test)
                throw JsonError("robustness sweep requires a test split "
                                "(dataset has no test_manifest)");
            result.robustness =
                robustnessSweep(model, data.test, *robustness_sweep);
            result.has_robustness = true;
        }
    } else if (spec.task == "segmentation") {
        SpecData<SegDataset> data;
        loadSpecData(
            spec,
            [&](std::size_t samples, uint64_t seed) {
                if (spec.dataset != "city")
                    throw JsonError("segmentation task needs dataset city, "
                                    "got: " + spec.dataset);
                return makeSynthCity(samples, seed,
                                     synthConfig<CityConfig>(spec));
            },
            data);
        // Placeholder detector keeps serialization uniform; the output is
        // the full detector-plane intensity map.
        DonnModel model = buildSpecModel(spec, 2, &rng);
        SegmentationTask task(model, *data.source,
                              data.has_test ? &data.test : nullptr);
        task.setPerturbationSpec(spec.perturbation);
        runSession(task);
        recordSource(*data.source);
        result.final_metrics = task.evaluate();
        if (data.has_test)
            result.secondary = task.evaluateMse(data.test);
    } else if (spec.task == "rgb") {
        if (spec.perturbation.active())
            throw JsonError("perturbation-vaccinated training is not "
                            "supported for the rgb task");
        SpecData<RgbDataset> data;
        loadSpecData(
            spec,
            [&](std::size_t samples, uint64_t seed) {
                if (spec.dataset != "scenes")
                    throw JsonError("rgb task needs dataset scenes, got: " +
                                    spec.dataset);
                return makeSynthScenes(samples, seed,
                                       synthConfig<SceneConfig>(spec));
            },
            data);
        const std::size_t classes = spec.detector.classes > 0
                                        ? spec.detector.classes
                                        : data.num_classes;
        result.num_classes = classes;
        std::vector<std::unique_ptr<DonnModel>> channels;
        for (int ch = 0; ch < 3; ++ch)
            channels.push_back(std::make_unique<DonnModel>(
                buildSpecModel(spec, classes, &rng)));
        MultiChannelDonn model(std::move(channels));
        RgbTask task(model, *data.source,
                     data.has_test ? &data.test : nullptr);
        runSession(task);
        recordSource(*data.source);
        result.final_metrics = task.evaluate();
    } else {
        throw JsonError("unknown task kind: " + spec.task);
    }

    result.seconds = timer.seconds();
    return result;
}

Json
ExperimentResult::report(const ExperimentSpec &spec) const
{
    Json j;
    j["spec"] = spec.toJson();
    Json epochs;
    for (const EpochStats &stats : history)
        epochs.push(epochStatsJson(stats));
    j["epochs"] = std::move(epochs);

    Json final;
    if (task == "segmentation") {
        final["iou"] = Json(final_metrics.primary);
        final["mse"] = Json(secondary);
    } else {
        final["accuracy"] = Json(final_metrics.primary);
        final["top3_accuracy"] = Json(final_metrics.top3);
        final["num_classes"] = Json(num_classes);
        final["chance"] =
            Json(num_classes > 0 ? 1.0 / static_cast<double>(num_classes)
                                 : 0.0);
    }
    j["final"] = std::move(final);

    Json execution;
    execution["workers"] = Json(workers_used);
    execution["workers_requested"] = Json(workers_requested);
    execution["hw_threads"] = Json(hw_threads);
    execution["data_source"] = Json(data_source);
    execution["data_shards"] = Json(data_shards);
    execution["data_prefetch"] = Json(data_prefetch);
    execution["data_bytes_read"] = Json(data_bytes_read);
    j["execution"] = std::move(execution);

    if (has_robustness)
        j["robustness"] = robustness.toJson();

    j["seconds"] = Json(seconds);
    return j;
}

} // namespace lightridge
