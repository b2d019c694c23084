#include "core/task.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/skip.hpp"
#include "utils/log.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {

Task::~Task() = default;

void
forEachModelLayer(DonnModel &model, const std::function<void(Layer *)> &fn)
{
    std::function<void(Layer *)> visit = [&](Layer *layer) {
        fn(layer);
        if (auto *s = dynamic_cast<OpticalSkipLayer *>(layer))
            for (std::size_t i = 0; i < s->innerDepth(); ++i)
                visit(s->innerLayer(i));
    };
    for (std::size_t i = 0; i < model.depth(); ++i)
        visit(model.layer(i));
}

void
applyModelGamma(DonnModel &model, Real gamma)
{
    // A deployed table already holds its gamma (deployRaw, deployCodesign).
    forEachModelLayer(model, [gamma](Layer *layer) {
        auto *m = dynamic_cast<ModulationLayer *>(layer);
        if (m && !dynamic_cast<FixedModulationLayer *>(layer))
            m->setGamma(gamma);
    });
}

void
applyModelTau(DonnModel &model, Real tau)
{
    forEachModelLayer(model, [tau](Layer *layer) {
        if (auto *c = dynamic_cast<CodesignLayer *>(layer))
            c->setTau(tau);
    });
}

void
bindModelNoiseRng(DonnModel &model, Rng *rng)
{
    forEachModelLayer(model, [rng](Layer *layer) {
        if (auto *c = dynamic_cast<CodesignLayer *>(layer))
            if (c->hasRng())
                c->setRng(rng);
    });
}

std::vector<const Propagator *>
modelLayerHops(const DonnModel &model)
{
    std::vector<const Propagator *> hops(model.depth(), nullptr);
    for (std::size_t i = 0; i < model.depth(); ++i)
        if (auto *m = dynamic_cast<const ModulationLayer *>(model.layer(i)))
            hops[i] = &m->propagator();
    return hops;
}

namespace {

/**
 * The optical stacks of a model, each with its own noise rng binding,
 * Gumbel temperature and detector amp factor: a DonnModel is one stack,
 * a MultiChannelDonn has one per channel.
 */
std::size_t
stackCount(const DonnModel &)
{
    return 1;
}

std::size_t
stackCount(const MultiChannelDonn &model)
{
    return model.numChannels();
}

DonnModel &
stackAt(DonnModel &model, std::size_t)
{
    return model;
}

DonnModel &
stackAt(MultiChannelDonn &model, std::size_t s)
{
    return model.channel(s);
}

/** Inference logits of one sample (const and cache-free: thread-safe). */
std::vector<Real>
sampleLogits(const DonnModel &model, const RealMap &image)
{
    Field u = model.encode(image);
    return model.inferLogitsInPlace(u, PropagationWorkspace::threadLocal());
}

std::vector<Real>
sampleLogits(const MultiChannelDonn &model, const std::array<RealMap, 3> &rgb)
{
    return model.inferLogits(model.encode(rgb));
}

/**
 * Set every stack's detector amp factor so the mean top logit over a
 * probe of the training set (`calib_probe` samples, else
 * `default_probe`) lands on `calib_target`.
 */
template <typename Model, typename Dataset>
void
calibrateAmpFactor(Model &model, RecordSource<Dataset> &source,
                   const TrainConfig &config, std::size_t default_probe)
{
    std::size_t probe =
        config.calib_probe > 0 ? config.calib_probe : default_probe;
    probe = std::min(probe, source.size());
    if (probe == 0)
        return;
    source.stageIndices(0, probe);
    for (std::size_t s = 0; s < stackCount(model); ++s)
        stackAt(model, s).detector().setAmpFactor(1.0);
    Real mean_top = 0;
    for (std::size_t i = 0; i < probe; ++i) {
        std::vector<Real> logits = sampleLogits(model, source.image(i));
        mean_top += *std::max_element(logits.begin(), logits.end());
    }
    mean_top /= static_cast<Real>(probe);
    if (mean_top > 0) {
        const Real amp = config.calib_target / mean_top;
        for (std::size_t s = 0; s < stackCount(model); ++s)
            stackAt(model, s).detector().setAmpFactor(amp);
        LR_LOG(Debug) << "calibrated amp_factor=" << amp;
    }
}

/**
 * Top-k hit rate over `data` for each k of `ks`: samples infer in
 * parallel, and hits reduce in index order so the rates do not depend on
 * scheduling.
 */
template <typename Model, typename Dataset>
std::vector<Real>
topKHits(const Model &model, const Dataset &data,
         const std::vector<std::size_t> &ks)
{
    std::vector<Real> rates(ks.size(), 0);
    if (data.size() == 0)
        return rates;
    std::vector<std::uint8_t> hit(data.size() * ks.size(), 0);
    ThreadPool::global().parallelFor(data.size(), [&](std::size_t i) {
        std::vector<Real> logits = sampleLogits(model, data.images[i]);
        for (std::size_t j = 0; j < ks.size(); ++j)
            hit[i * ks.size() + j] =
                topKContains(logits, data.labels[i], ks[j]) ? 1 : 0;
    });
    for (std::size_t j = 0; j < ks.size(); ++j) {
        std::size_t hits = 0;
        for (std::size_t i = 0; i < data.size(); ++i)
            hits += hit[i * ks.size() + j];
        rates[j] = static_cast<Real>(hits) / data.size();
    }
    return rates;
}

} // namespace

// --------------------------------------------------------------------------
// ModelTask: source binding and replica engine
// --------------------------------------------------------------------------

template <typename Model, typename Dataset>
ModelTask<Model, Dataset>::ModelTask(Model &model, const Dataset &train,
                                     const Dataset *test)
    : model_(model),
      own_source_(std::make_unique<InMemorySource<Dataset>>(train)),
      source_(own_source_.get()), test_(test)
{}

template <typename Model, typename Dataset>
ModelTask<Model, Dataset>::ModelTask(Model &model,
                                     RecordSource<Dataset> &train,
                                     const Dataset *test)
    : model_(model), source_(&train), test_(test)
{}

template <typename Model, typename Dataset>
ModelTask<Model, Dataset>::Replica::Replica(const Model &source,
                                            uint64_t seed)
    : model(source.clone()), rng(seed)
{
    // clone() copies rng_ pointers as-is; point every noise-enabled
    // codesign layer (skip interiors included) at this replica's own
    // source instead, so a replica never shares the primary's
    // (non-thread-safe) rng with worker 0. Noiseless layers stay
    // noiseless, matching the primary exactly.
    for (std::size_t s = 0; s < stackCount(model); ++s)
        bindModelNoiseRng(stackAt(model, s), &rng);
    params = model.params();
}

template <typename Model, typename Dataset>
void
ModelTask<Model, Dataset>::buildReplicas(const std::vector<uint64_t> &seeds)
{
    // Rebuilt every epoch: clones capture the current tau/gamma annealing
    // state and detector calibration, and per-epoch seeds keep Gumbel
    // noise streams deterministic for a fixed worker count.
    replicas_.clear();
    replicas_.reserve(seeds.size());
    for (uint64_t seed : seeds)
        replicas_.push_back(std::make_unique<Replica>(model_, seed));
}

template <typename Model, typename Dataset>
void
ModelTask<Model, Dataset>::syncReplicas()
{
    std::vector<ParamView> main_params = model_.params();
    for (auto &replica : replicas_) {
        for (std::size_t p = 0; p < main_params.size(); ++p)
            *replica->params[p].value = *main_params[p].value;
        for (std::size_t s = 0; s < stackCount(model_); ++s)
            stackAt(replica->model, s).detector().setAmpFactor(
                stackAt(model_, s).detector().ampFactor());
    }
}

template <typename Model, typename Dataset>
void
ModelTask<Model, Dataset>::setTau(Real tau)
{
    for (std::size_t s = 0; s < stackCount(model_); ++s)
        applyModelTau(stackAt(model_, s), tau);
}

template <typename Dataset>
void
DonnTask<Dataset>::setPerturbationSpec(const PerturbationSpec &spec)
{
    if (!spec.active()) {
        clearPerturbation();
        perturb_sampler_.reset();
        return;
    }
    perturb_sampler_ = std::make_unique<PerturbationSampler>(
        spec, modelLayerHops(this->model_),
        this->model_.hopPropagator().get());
}

template <typename Dataset>
void
DonnTask<Dataset>::samplePerturbation(uint64_t draw_seed)
{
    if (!perturb_sampler_)
        return;
    // One shared realization for the primary and every replica: the
    // values are seed-determined (identical at any worker count) and
    // read-only while workers are in flight.
    perturb_sampler_->sample(draw_seed, perturb_realization_);
    this->model_.setPerturbation(&perturb_realization_);
    for (auto &replica : this->replicas_)
        replica->model.setPerturbation(&perturb_realization_);
}

template <typename Dataset>
void
DonnTask<Dataset>::clearPerturbation()
{
    this->model_.setPerturbation(nullptr);
    for (auto &replica : this->replicas_)
        replica->model.setPerturbation(nullptr);
}

template class ModelTask<DonnModel, ClassDataset>;
template class ModelTask<DonnModel, SegDataset>;
template class ModelTask<MultiChannelDonn, RgbDataset>;
template class DonnTask<ClassDataset>;
template class DonnTask<SegDataset>;

// --------------------------------------------------------------------------
// ClassificationTask
// --------------------------------------------------------------------------

void
ClassificationTask::calibrate()
{
    if (config_.gamma > 0)
        applyModelGamma(model_, config_.gamma);
    calibrateAmpFactor(model_, *source_, config_, 16);
}

SampleResult
ClassificationTask::sampleStep(DonnModel &model, std::size_t index)
{
    // The whole forward/backward pass runs in one leased buffer from the
    // calling thread's workspace: encode -> stack -> logits -> gradient ->
    // adjoint unwind, with zero heap allocations in steady state.
    SampleResult result;
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const Grid grid = model.spec().grid();
    WorkspaceField u(workspace, grid.n, grid.n);
    const int label = source_->label(index);
    model.encodeInto(source_->image(index), u.get());
    std::vector<Real> logits = model.forwardLogitsInPlace(u.get(), true,
                                                          workspace);
    LossResult loss = classificationLoss(config_.loss, logits, label);
    result.loss = loss.value;
    int pred = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    result.hit = pred == label;
    model.backwardFromLogitsInPlace(loss.dlogits, u.get(), workspace);
    return result;
}

TaskMetrics
ClassificationTask::evaluate()
{
    if (test_ == nullptr)
        return {};
    const std::vector<Real> hits = topKHits(model_, *test_, {1, 3});
    return {hits[0], hits[1]};
}

// --------------------------------------------------------------------------
// SegmentationTask
// --------------------------------------------------------------------------

void
SegmentationTask::calibrate()
{
    std::size_t probe = config_.calib_probe > 0 ? config_.calib_probe : 8;
    probe = std::min(probe, source_->size());
    if (probe == 0)
        return;
    source_->stageIndices(0, probe);
    Real mean_intensity = 0;
    Real mean_mask = 0;
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    Field u;
    for (std::size_t i = 0; i < probe; ++i) {
        // Training-path statistics (LayerNorm active) so the loss scale
        // matches what the optimizer will actually see.
        model_.encodeInto(source_->image(i), u);
        model_.forwardFieldInPlace(u, /*training=*/true, workspace);
        mean_intensity += u.intensity().mean();
        mean_mask += source_->mask(i).mean();
    }
    mean_intensity /= static_cast<Real>(probe);
    mean_mask /= static_cast<Real>(probe);
    if (mean_mask > 0)
        mask_mean_ = mean_mask;
    // Aim the mean training-path intensity at the mask brightness.
    if (mean_intensity > 0)
        intensity_scale_ = mask_mean_ / mean_intensity;
}

SampleResult
SegmentationTask::sampleStep(DonnModel &model, std::size_t index)
{
    SampleResult result;
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const Grid grid = model.spec().grid();
    WorkspaceField u(workspace, grid.n, grid.n);
    model.encodeInto(source_->image(index), u.get());
    model.forwardFieldInPlace(u.get(), true, workspace);
    const RealMap *target = &source_->mask(index);
    RealMap resized;
    if (target->rows() != grid.n) {
        resized = resizeBilinear(*target, grid.n, grid.n);
        target = &resized;
    }
    // Overwrites u with the Wirtinger loss gradient, then unwinds.
    result.loss =
        intensityMseLossInPlace(u.get(), *target, intensity_scale_);
    model.backwardFieldInPlace(u.get(), workspace);
    return result;
}

TaskMetrics
SegmentationTask::evaluate()
{
    TaskMetrics metrics;
    if (test_ != nullptr)
        metrics.primary = evaluateIou(*test_);
    return metrics;
}

RealMap
SegmentationTask::predictMask(const RealMap &image)
{
    RealMap intensity = model_.inferField(model_.encode(image)).intensity();
    // Auto-exposure: match the mean prediction brightness to the
    // expected mask brightness (LayerNorm is training-only, so the raw
    // inference intensity scale is otherwise arbitrary).
    Real mean = intensity.mean();
    if (mean > 0)
        intensity *= mask_mean_ / mean;
    return intensity;
}

Real
SegmentationTask::evaluateIou(const SegDataset &data, Real threshold)
{
    if (data.size() == 0)
        return 0;
    const Grid grid = model_.spec().grid();
    Real total = 0;
    std::vector<Real> sorted;
    for (std::size_t i = 0; i < data.size(); ++i) {
        RealMap pred = predictMask(data.images[i]);
        RealMap target = (data.masks[i].rows() == grid.n)
                             ? data.masks[i]
                             : resizeBilinear(data.masks[i], grid.n, grid.n);
        // Predictions are uncalibrated analog intensities; binarize at
        // the quantile matching the target's positive fraction so IoU
        // scores spatial agreement, not exposure.
        Real positive_frac =
            target.sum() / static_cast<Real>(target.size());
        sorted.assign(pred.raw().begin(), pred.raw().end());
        std::sort(sorted.begin(), sorted.end());
        std::size_t cut = static_cast<std::size_t>(
            std::min<Real>(sorted.size() - 1.0,
                           (1 - positive_frac) * sorted.size()));
        Real pred_threshold = sorted[cut];

        std::size_t inter = 0, uni = 0;
        for (std::size_t p = 0; p < pred.size(); ++p) {
            bool a = pred[p] >= pred_threshold;
            bool b = target[p] >= threshold;
            inter += (a && b) ? 1 : 0;
            uni += (a || b) ? 1 : 0;
        }
        total += uni == 0 ? 1.0 : static_cast<Real>(inter) / uni;
    }
    return total / data.size();
}

Real
SegmentationTask::evaluateMse(const SegDataset &data)
{
    if (data.size() == 0)
        return 0;
    const Grid grid = model_.spec().grid();
    Real total = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        RealMap pred = predictMask(data.images[i]);
        RealMap target = (data.masks[i].rows() == grid.n)
                             ? data.masks[i]
                             : resizeBilinear(data.masks[i], grid.n, grid.n);
        Real err = 0;
        for (std::size_t p = 0; p < pred.size(); ++p) {
            Real d = pred[p] - target[p];
            err += d * d;
        }
        total += err / pred.size();
    }
    return total / data.size();
}

// --------------------------------------------------------------------------
// RgbTask
// --------------------------------------------------------------------------

void
RgbTask::calibrate()
{
    calibrateAmpFactor(model_, *source_, config_, 8);
}

SampleResult
RgbTask::sampleStep(MultiChannelDonn &model, std::size_t index)
{
    SampleResult result;
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const int label = source_->label(index);
    std::vector<Real> logits =
        model.trainForwardLogitsInPlace(source_->image(index), workspace);
    LossResult loss = classificationLoss(config_.loss, logits, label);
    result.loss = loss.value;
    int pred = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    result.hit = pred == label;
    model.backwardFromLogitsInPlace(loss.dlogits, workspace);
    return result;
}

TaskMetrics
RgbTask::evaluate()
{
    if (test_ == nullptr)
        return {};
    const std::vector<Real> hits = topKHits(model_, *test_, {1, 3});
    return {hits[0], hits[1]};
}

// --------------------------------------------------------------------------
// Evaluation utilities
// --------------------------------------------------------------------------

Real
evaluateAccuracy(DonnModel &model, const ClassDataset &data, Real noise_frac,
                 Rng *rng)
{
    return evaluateWithConfidence(model, data, noise_frac, rng).accuracy;
}

EvalResult
evaluateWithConfidence(DonnModel &model, const ClassDataset &data,
                       Real noise_frac, Rng *rng)
{
    EvalResult result;
    if (data.size() == 0)
        return result;
    const bool noisy = noise_frac > 0 && rng != nullptr;

    std::vector<std::uint8_t> hit(data.size(), 0);
    std::vector<Real> conf(data.size(), 0);
    auto evalOne = [&](std::size_t i) {
        Field u = model.inferField(model.encode(data.images[i]));
        std::vector<Real> logits =
            noisy ? model.detector().readoutNoisy(u, noise_frac, rng)
                  : model.detector().readout(u);
        int pred = static_cast<int>(
            std::max_element(logits.begin(), logits.end()) - logits.begin());
        hit[i] = pred == data.labels[i] ? 1 : 0;
        conf[i] = predictionConfidence(logits);
    };

    if (noisy) {
        // The shared rng makes noisy readout order-dependent; keep serial.
        for (std::size_t i = 0; i < data.size(); ++i)
            evalOne(i);
    } else {
        ThreadPool::global().parallelFor(data.size(), evalOne);
    }

    // Accumulate in index order so the result is independent of scheduling.
    std::size_t correct = 0;
    Real confidence = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        correct += hit[i];
        confidence += conf[i];
    }
    result.accuracy = static_cast<Real>(correct) / data.size();
    result.confidence = confidence / data.size();
    return result;
}

Real
evaluateTopK(DonnModel &model, const ClassDataset &data, std::size_t k)
{
    return topKHits(model, data, {k})[0];
}

Real
evaluateTopK(MultiChannelDonn &model, const RgbDataset &data, std::size_t k)
{
    return topKHits(model, data, {k})[0];
}

} // namespace lightridge
