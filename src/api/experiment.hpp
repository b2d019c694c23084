/**
 * @file
 * Declarative experiment front end (the paper's "agile design" DSL,
 * Figures 2-3, lifted to JSON).
 *
 * An ExperimentSpec captures one complete DONN workload — optical system,
 * model architecture, dataset, task kind, and training hyperparameters —
 * as a strict, versionable JSON document. runExperiment() executes a spec
 * end to end through the Task/Session engine and returns a structured
 * results report. A model architecture is a list of layer entries in the
 * schema checkpoints use (DonnModel::addLayers): a spec entry names a kind
 * and may omit the parameters a checkpoint entry carries, which are then
 * drawn from the model seed.
 */
#pragma once

#include <string>
#include <vector>

#include "api/robustness.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "optics/perturbation.hpp"
#include "utils/json.hpp"

namespace lightridge {

/** Dataset slice of an experiment (synthetic generators, seeded). */
struct DataSpec
{
    std::size_t train_samples = 300;
    std::size_t test_samples = 100;
    uint64_t seed = 1;
    std::size_t image_size = 0; ///< 0 = generator default
};

/**
 * Where training data comes from. The spec's "dataset" key accepts
 * either a plain string ("digits") — synthesized in memory, exactly as
 * before — or an object: {"kind": "sharded", "manifest": ".../
 * manifest.json", ...} trains out of core through the streaming
 * prefetcher (see data/stream.hpp). Streamed and preloaded training
 * over the same manifest are bitwise identical at any worker count.
 */
struct DatasetSourceSpec
{
    std::string kind = "synth"; ///< synth|sharded

    /** Train-split manifest path (sharded only). */
    std::string manifest;

    /** Held-out split manifest; empty trains without evaluation. */
    std::string test_manifest;

    /** Shards of decode lookahead (sharded only; 0 = synchronous). */
    std::size_t prefetch = 1;

    /**
     * Materialize the whole train split in memory instead of streaming,
     * keeping the manifest's shard layout so the epoch order — and
     * therefore training — matches the streamed run bitwise. The
     * parity-check mode.
     */
    bool preload = false;
};

/** Detector geometry of an experiment. */
struct DetectorSpec
{
    std::size_t classes = 0;  ///< 0 = dataset's class count
    std::size_t det_size = 0; ///< 0 = system_size / 10 heuristic

    /**
     * Readout mode: "intensity" (paper default) or "differential"
     * (paired positive/negative regions with normalized difference
     * logits, Li et al., arXiv:1906.03417).
     */
    std::string mode = "intensity";
};

/**
 * One complete, declarative DONN experiment. All fields have defaults;
 * fromJson() is strict (unknown keys are errors) so typos in spec files
 * fail loudly instead of silently training the wrong thing.
 */
struct ExperimentSpec
{
    /** Declarative default: distance auto-resolves via half-cone rule. */
    ExperimentSpec() { system.distance = 0; }

    std::string name = "experiment";
    std::string task = "classification"; ///< classification|segmentation|rgb
    std::string dataset = "digits";      ///< digits|fashion|city|scenes
    DatasetSourceSpec source;            ///< synth (default) or sharded
    DataSpec data;
    SystemSpec system;      ///< distance <= 0 resolves to half-cone ideal
    Real wavelength = 532e-9;
    uint64_t model_seed = 7;
    /** Layer entries in the checkpoint schema, parameters optional
     *  (DonnModel::addLayers); null builds the task default. */
    Json layers;
    DetectorSpec detector;
    TrainConfig train;

    /**
     * Misalignment-vaccinated training: per-batch fabrication/alignment
     * errors injected into every free-space hop during training (lateral
     * shift, axial jitter, phase noise). Defaults to inactive — specs
     * without a "perturbation" block train exactly as before.
     */
    PerturbationSpec perturbation;

    /** Serialize (enums as strings, layers verbatim). */
    Json toJson() const;

    /**
     * Strict parse: unknown keys anywhere in the spec, unknown layer
     * kinds, bad layer values (checkLayersJson) and bad enum strings all
     * throw JsonError.
     */
    static ExperimentSpec fromJson(const Json &j);

    /** Load + parse a spec file. */
    static ExperimentSpec load(const std::string &path);

    /** System spec with distance resolved (half-cone rule when <= 0). */
    SystemSpec resolvedSystem() const;
};

/** Results of one executed experiment. */
struct ExperimentResult
{
    std::string name;
    std::string task;
    std::vector<EpochStats> history;
    TaskMetrics final_metrics;
    Real secondary = 0;         ///< task extra (segmentation: MSE)
    std::size_t num_classes = 0; ///< 0 for non-classification tasks
    double seconds = 0;

    /**
     * Execution mode the run actually used (bench artifacts need the
     * mode on record, not just the request): workers resolved per the
     * Session rule (0 -> pool size, clamped by batch/train size).
     */
    std::size_t workers_used = 1;
    std::size_t workers_requested = 0;
    std::size_t hw_threads = 0;

    /**
     * Resolved data source the run trained from ("memory" covers synth
     * and preloaded manifests; "sharded" streamed off disk), with its
     * shard layout, prefetch depth, and total shard payload bytes
     * decoded during training.
     */
    std::string data_source = "memory";
    std::size_t data_shards = 1;
    std::size_t data_prefetch = 0;
    std::uint64_t data_bytes_read = 0;

    /**
     * Post-training accuracy-vs-error sweep (when requested); empty
     * points otherwise. Serialized as the report's "robustness" block.
     */
    RobustnessReport robustness;
    bool has_robustness = false;

    /** Full JSON report (spec echo + per-epoch stats + final metrics +
     *  execution block + optional robustness block). */
    Json report(const ExperimentSpec &spec) const;
};

/** TrainConfig <-> JSON (strict; loss kind as string). */
Json trainConfigToJson(const TrainConfig &config);
TrainConfig trainConfigFromJson(const Json &j);

/**
 * Build the single-stack model an experiment describes (layers through
 * DonnModel::addLayers, detector per spec). Used for classification and
 * segmentation tasks; RGB builds one stack per channel.
 * @param num_classes detector class count after dataset defaulting
 */
DonnModel buildSpecModel(const ExperimentSpec &spec, std::size_t num_classes,
                         Rng *rng);

/**
 * Execute a spec end to end: synthesize data, build the model(s) and
 * task, train through a Session, and reduce final metrics.
 * @param epoch_callback optional per-epoch hook (progress reporting)
 * @param save_model_path when non-empty, the trained primary model is
 *        checkpointed here after training (the serving onboarding path:
 *        train with lightridge_run, register the checkpoint with
 *        lightridge_serve)
 * @param robustness_sweep when non-null, run an accuracy-vs-error sweep
 *        on the trained model over the test set (classification only;
 *        throws JsonError for other tasks)
 */
ExperimentResult
runExperiment(const ExperimentSpec &spec,
              const Session::Callback &epoch_callback = nullptr,
              const std::string &save_model_path = "",
              const RobustnessSweepConfig *robustness_sweep = nullptr);

} // namespace lightridge
