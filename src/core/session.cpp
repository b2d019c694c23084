#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "data/source.hpp"
#include "utils/log.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

namespace lightridge {

namespace {

/** Scoped source epoch: beginEpoch now, endEpoch on every exit path. */
struct StreamEpochGuard
{
    DataSource *stream;

    StreamEpochGuard(DataSource *s, const std::vector<std::size_t> *order)
        : stream(s)
    {
        if (stream != nullptr)
            stream->beginEpoch(order);
    }

    ~StreamEpochGuard()
    {
        if (stream != nullptr)
            stream->endEpoch();
    }

    StreamEpochGuard(const StreamEpochGuard &) = delete;
    StreamEpochGuard &operator=(const StreamEpochGuard &) = delete;
};

} // namespace

Session::Session(Task &task, TrainConfig config)
    : task_(task), config_(config), optimizer_(config.lr), rng_(config.seed)
{
    if (config_.batch == 0)
        throw std::invalid_argument("TrainConfig::batch must be at least 1");
    task_.configure(config_);
    optimizer_.attach(task_.params());
}

Session::~Session() = default;

void
Session::addCallback(Callback callback)
{
    callbacks_.push_back(std::move(callback));
}

void
Session::calibrate()
{
    task_.calibrate();
    calibrated_ = true;
}

void
Session::annealTau(int epoch)
{
    if (config_.epochs <= 1) {
        task_.setTau(config_.tau_end);
        return;
    }
    Real t = static_cast<Real>(epoch) / (config_.epochs - 1);
    task_.setTau(config_.tau_start +
                 t * (config_.tau_end - config_.tau_start));
}

std::size_t
Session::resolveWorkers(const TrainConfig &config, std::size_t train_size)
{
    std::size_t workers = config.workers;
    if (workers == 0)
        workers = std::max<std::size_t>(
            ThreadPool::global().workerCount(), 1);
    return std::min({workers, config.batch, train_size});
}

EpochStats
Session::trainEpoch()
{
    ++epoch_counter_;
    mid_history_.clear();
    // An empty training set resolves to 0 workers; it trains zero batches.
    const std::size_t workers =
        std::max<std::size_t>(resolveWorkers(config_, task_.trainSize()), 1);
    // Two-level order (shard permutation, then intra-shard permutations)
    // drawn from the session rng: a single-shard layout — every in-memory
    // task, and a task with no stream — consumes the rng exactly like a
    // flat shuffle, and any two sources with the same shard layout get
    // the same order.
    DataSource *stream = task_.trainStream();
    const std::vector<std::size_t> order = twoLevelEpochOrder(
        stream != nullptr ? stream->shardSizes()
                          : std::vector<std::size_t>{task_.trainSize()},
        config_.shuffle, &rng_);
    StreamEpochGuard epoch_guard(stream, &order);

    EpochStats stats;
    WallTimer timer;

    // Worker 0 trains the primary model; worker w >= 1 trains replica
    // w - 1, cloned here with the current parameters and calibration.
    task_.buildReplicas(replicaSeeds(workers - 1));
    const std::vector<ParamView> main_params = task_.params();
    ThreadPool &pool = ThreadPool::global();

    const bool perturbed = task_.perturbationActive();
    std::size_t correct = 0;
    std::vector<Real> loss_part(workers);
    std::vector<std::size_t> correct_part(workers);
    task_.zeroGrad();

    for (std::size_t start = 0; start < order.size();
         start += config_.batch) {
        const std::size_t batch_index = start / config_.batch;
        const std::size_t batch =
            std::min(config_.batch, order.size() - start);
        const std::size_t active = std::min(workers, batch);

        // The pool is idle here, so staging the batch's shards and
        // rewriting the shared misalignment realization are race-free;
        // workers read both concurrently below.
        if (stream != nullptr)
            stream->stageRange(start, start + batch);
        if (perturbed)
            task_.samplePerturbation(perturbationSeed(batch_index));

        std::fill(loss_part.begin(), loss_part.end(), Real(0));
        std::fill(correct_part.begin(), correct_part.end(), std::size_t{0});

        // Round-robin sample assignment: worker w trains samples
        // w, w+active, ... of the batch, sequentially (each layer caches
        // one sample's activations between forward and backward). One
        // active worker runs inline on this thread.
        pool.parallelFor(active, [&](std::size_t w) {
            for (std::size_t j = w; j < batch; j += active) {
                const std::size_t index = order[start + j];
                SampleResult sample = w == 0
                                          ? task_.trainSample(index)
                                          : task_.trainSampleOn(w - 1, index);
                loss_part[w] += sample.loss;
                if (sample.hit)
                    ++correct_part[w];
            }
        });

        // Merge in fixed worker order (deterministic for a given worker
        // count): worker 0's gradients are already in the primary, each
        // replica's add on top. Then step and redistribute parameters.
        for (std::size_t w = 0; w < active; ++w) {
            stats.train_loss += loss_part[w];
            correct += correct_part[w];
            if (w == 0)
                continue;
            std::vector<ParamView> rep_params = task_.replicaParams(w - 1);
            for (std::size_t p = 0; p < main_params.size(); ++p) {
                const std::vector<Real> &src = *rep_params[p].grad;
                std::vector<Real> &dst = *main_params[p].grad;
                for (std::size_t i = 0; i < dst.size(); ++i)
                    dst[i] += src[i];
            }
            task_.zeroReplicaGrad(w - 1);
        }
        requireFiniteLoss(stats.train_loss, batch_index);
        requireFiniteGradients(main_params, batch_index);
        optimizer_.step();
        task_.zeroGrad();
        if (workers > 1)
            task_.syncReplicas();
        if (devEvalDue(batch_index))
            midEpochEval(stats.train_loss, correct, start + batch,
                         batch_index, timer.seconds());
    }
    if (perturbed)
        task_.clearPerturbation();

    const std::size_t n = std::max<std::size_t>(order.size(), 1);
    stats.train_loss /= n;
    stats.train_acc = static_cast<Real>(correct) / n;
    stats.seconds = timer.seconds();
    return stats;
}

uint64_t
Session::perturbationDrawSeed(uint64_t seed, int epoch,
                              std::size_t batch_index)
{
    // Epoch and batch index occupy disjoint bit ranges, and the mixing
    // constant differs from replicaSeeds' so the misalignment stream can
    // never alias a replica noise stream. Depends only on
    // (seed, epoch, batch): the same errors are drawn for a batch no
    // matter how many workers process it.
    uint64_t tag = (static_cast<uint64_t>(epoch) << 32) |
                   static_cast<uint64_t>(batch_index);
    return seed ^ (0xbf58476d1ce4e5b9ull * tag);
}

std::vector<uint64_t>
Session::replicaSeeds(std::size_t count) const
{
    // Per-epoch replica seeds: epoch and replica index occupy disjoint
    // bit ranges so no two (epoch, replica) pairs ever alias to the same
    // noise stream.
    std::vector<uint64_t> seeds(count);
    for (std::size_t r = 0; r < count; ++r) {
        uint64_t tag = (static_cast<uint64_t>(epoch_counter_) << 32) |
                       static_cast<uint64_t>(r + 1);
        seeds[r] = config_.seed ^ (0x9e3779b97f4a7c15ull * tag);
    }
    return seeds;
}

void
Session::requireFiniteLoss(Real loss_sum, std::size_t batch_index) const
{
    if (std::isfinite(loss_sum))
        return;
    throw std::runtime_error(
        "non-finite training loss (" + std::to_string(loss_sum) +
        ") in epoch " + std::to_string(epoch_counter_ - 1) + ", batch " +
        std::to_string(batch_index) + "; stopped before the optimizer step");
}

void
Session::requireFiniteGradients(const std::vector<ParamView> &params,
                                std::size_t batch_index) const
{
    for (const ParamView &param : params) {
        const std::vector<Real> &grad = *param.grad;
        const auto bad = std::find_if(grad.begin(), grad.end(), [](Real g) {
            return !std::isfinite(g);
        });
        if (bad == grad.end())
            continue;
        throw std::runtime_error(
            "non-finite gradient (" + std::to_string(*bad) + ") in " +
            param.name + " in epoch " + std::to_string(epoch_counter_ - 1) +
            ", batch " + std::to_string(batch_index) +
            "; stopped before the optimizer step");
    }
}

bool
Session::devEvalDue(std::size_t batch_index) const
{
    return config_.dev_eval_every_batches > 0 && task_.hasTest() &&
           (batch_index + 1) % config_.dev_eval_every_batches == 0;
}

void
Session::midEpochEval(Real loss_sum, std::size_t correct, std::size_t seen,
                      std::size_t batch_index, double seconds)
{
    EpochStats stats;
    stats.epoch = epoch_counter_ - 1;
    stats.mid_epoch = true;
    stats.batch = batch_index + 1;
    const std::size_t n = std::max<std::size_t>(seen, 1);
    stats.train_loss = loss_sum / n;
    stats.train_acc = static_cast<Real>(correct) / n;
    stats.seconds = seconds;
    // Evaluation runs clean; the next batch redraws its own realization.
    if (task_.perturbationActive())
        task_.clearPerturbation();
    TaskMetrics metrics = task_.evaluate();
    stats.test_acc = metrics.primary;
    stats.test_top3 = metrics.top3;
    if (config_.verbose) {
        LR_LOG(Info) << task_.kind() << " epoch " << stats.epoch
                     << " batch " << stats.batch
                     << " loss=" << stats.train_loss
                     << " dev=" << stats.test_acc;
    }
    mid_history_.push_back(stats);
    for (Callback &callback : callbacks_)
        callback(stats, *this);
}

std::vector<EpochStats>
Session::fit()
{
    if (config_.calibrate && !calibrated_)
        calibrate();
    std::vector<EpochStats> history;
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        annealTau(epoch);
        EpochStats stats = trainEpoch();
        stats.epoch = epoch;
        // Mid-epoch dev-eval snapshots precede their epoch's entry.
        history.insert(history.end(), mid_history_.begin(),
                       mid_history_.end());
        mid_history_.clear();
        if (task_.hasTest()) {
            TaskMetrics metrics = task_.evaluate();
            stats.test_acc = metrics.primary;
            stats.test_top3 = metrics.top3;
        }
        if (config_.verbose) {
            LR_LOG(Info) << task_.kind() << " epoch " << epoch
                         << " loss=" << stats.train_loss
                         << " train_acc=" << stats.train_acc
                         << " test=" << stats.test_acc
                         << " top3=" << stats.test_top3 << " ("
                         << stats.seconds << "s)";
        }
        history.push_back(stats);
        bool keep_going = true;
        for (Callback &callback : callbacks_)
            keep_going = callback(stats, *this) && keep_going;
        if (!keep_going)
            break;
    }
    return history;
}

Session::Callback
checkpointBestCallback(std::string path)
{
    auto best = std::make_shared<Real>(-1.0);
    return [best, path = std::move(path)](const EpochStats &stats,
                                          Session &session) {
        if (stats.test_acc > *best) {
            *best = stats.test_acc;
            session.task().save(path);
        }
        return true;
    };
}

Session::Callback
earlyStopCallback(int patience)
{
    auto best = std::make_shared<Real>(0.0);
    auto stale = std::make_shared<int>(0);
    auto first = std::make_shared<bool>(true);
    return [best, stale, first, patience](const EpochStats &stats,
                                          Session &) {
        if (*first || stats.train_loss < *best) {
            *first = false;
            *best = stats.train_loss;
            *stale = 0;
            return true;
        }
        return ++*stale < patience;
    };
}

} // namespace lightridge
