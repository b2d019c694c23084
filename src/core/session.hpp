/**
 * @file
 * Unified training engine driving a polymorphic Task (lr.train).
 *
 * One Session implements the recipe formerly copy-pasted across three
 * trainers: the physics-aware calibration pass, Gumbel-softmax tau
 * annealing, the shuffled epoch loop with per-batch Adam steps, per-epoch
 * callbacks (logging / early stop / checkpointing), and one data-parallel
 * epoch loop. Worker 0 trains the primary model and worker w >= 1 a
 * replica of it; the workers propagate disjoint slices of each batch, and
 * the replicas' gradients are merged in fixed worker order before every
 * optimizer step, so classification, segmentation, and RGB training all
 * parallelize identically. One worker clones nothing.
 */
#pragma once

#include <functional>
#include <vector>

#include "core/optimizer.hpp"
#include "core/task.hpp"
#include "utils/rng.hpp"

namespace lightridge {

/** Task-polymorphic training engine. */
class Session
{
  public:
    /**
     * Per-epoch hook, invoked after evaluation with the epoch's stats.
     * Return false to stop training after the current epoch (early stop).
     */
    using Callback = std::function<bool(const EpochStats &, Session &)>;

    /**
     * @param task workload to train; must outlive the session
     * @param config hyperparameters (also forwarded to the task)
     * @throws std::invalid_argument when config.batch is 0
     */
    Session(Task &task, TrainConfig config);
    ~Session();

    Task &task() { return task_; }
    const TrainConfig &config() const { return config_; }

    /** Register a per-epoch callback (run in registration order). */
    void addCallback(Callback callback);

    /**
     * Run the task's calibration pass now. fit() calibrates once when
     * config.calibrate is set and calibrate() has not run yet, so a
     * calibration done here is kept.
     */
    void calibrate();

    /**
     * One pass over the training set; returns loss/accuracy. Worker 0
     * trains the primary model and workers 1..W-1 train replicas cloned
     * at the start of the epoch (W from resolveWorkers(), at least 1);
     * the epoch loss sums each batch's per-worker loss sums in worker
     * order.
     * @throws std::runtime_error when a batch's loss is not finite
     *         (checked before that batch's optimizer step, so no NaN
     *         reaches the parameters)
     */
    EpochStats trainEpoch();

    /**
     * Full run: calibration (once), tau annealing, epoch loop, per-epoch
     * evaluation when the task has a test set, callbacks. With
     * TrainConfig::dev_eval_every_batches set, mid-epoch dev-eval
     * snapshots (EpochStats::mid_epoch) are interleaved into the history
     * before their epoch's end-of-epoch entry.
     */
    std::vector<EpochStats> fit();

    /**
     * The engine's worker-resolution rule: 0 sizes from the global
     * thread pool, then the count is clamped by batch and training-set
     * size. Exposed so results reports record the worker count training
     * actually used (execution block) without duplicating the rule.
     */
    static std::size_t resolveWorkers(const TrainConfig &config,
                                      std::size_t train_size);

    /**
     * Seed of the misalignment draw for one batch of vaccinated
     * training: a pure function of (train seed, epoch, batch index),
     * mixed on a stream constant disjoint from the replica-seed stream.
     * Independent of worker count, so the drawn error sequence is too.
     * Exposed static for the determinism tests.
     */
    static uint64_t perturbationDrawSeed(uint64_t seed, int epoch,
                                         std::size_t batch_index);

  private:
    void annealTau(int epoch);
    std::vector<uint64_t> replicaSeeds(std::size_t count) const;
    uint64_t perturbationSeed(std::size_t batch_index) const
    {
        return perturbationDrawSeed(config_.seed, epoch_counter_,
                                    batch_index);
    }

    /**
     * Throw std::runtime_error naming the epoch and batch when the
     * running loss sum is not finite. Called on the main thread before
     * every optimizer step, when no worker is in flight.
     */
    void requireFiniteLoss(Real loss_sum, std::size_t batch_index) const;

    /**
     * Same check over the merged gradients the optimizer is about to
     * apply (a finite loss can still carry an inf or NaN gradient).
     * `params` are the task's views, fetched once per epoch.
     */
    void requireFiniteGradients(const std::vector<ParamView> &params,
                                std::size_t batch_index) const;

    /** True when the mid-epoch dev-eval cadence fires after this batch. */
    bool devEvalDue(std::size_t batch_index) const;

    /**
     * Take a mid-epoch dev-eval snapshot: clear any attached
     * perturbation, evaluate, record the stats (running train loss /
     * accuracy over `seen` samples), and invoke the callbacks (their
     * return value is ignored mid-epoch — only end-of-epoch callbacks
     * stop training). Called between batches with no worker in flight.
     */
    void midEpochEval(Real loss_sum, std::size_t correct, std::size_t seen,
                      std::size_t batch_index, double seconds);

    Task &task_;
    TrainConfig config_;
    Adam optimizer_;
    Rng rng_;
    bool calibrated_ = false;
    int epoch_counter_ = 0;
    std::vector<Callback> callbacks_;
    std::vector<EpochStats> mid_history_; ///< current epoch's snapshots
};

/**
 * Callback factory: save the task's primary model to path after every
 * epoch whose test metric improved on the best seen so far (checkpointing
 * via DonnModel::save underneath).
 */
Session::Callback checkpointBestCallback(std::string path);

/** Callback factory: stop when train_loss fails to improve for `patience`
 *  consecutive epochs. */
Session::Callback earlyStopCallback(int patience);

} // namespace lightridge
