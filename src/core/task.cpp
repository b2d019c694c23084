#include "core/task.hpp"

#include <algorithm>
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
    forEachModelLayer(model, [gamma](Layer *layer) {
        if (auto *d = dynamic_cast<DiffractiveLayer *>(layer))
            d->setGamma(gamma);
        else if (auto *c = dynamic_cast<CodesignLayer *>(layer))
            c->setGamma(gamma);
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
    for (std::size_t i = 0; i < model.depth(); ++i) {
        const Layer *layer = model.layer(i);
        if (auto *d = dynamic_cast<const DiffractiveLayer *>(layer))
            hops[i] = &d->propagator();
        else if (auto *c = dynamic_cast<const CodesignLayer *>(layer))
            hops[i] = &c->propagator();
    }
    return hops;
}

// --------------------------------------------------------------------------
// DonnTaskBase replica engine
// --------------------------------------------------------------------------

DonnTaskBase::Replica::Replica(const DonnModel &source, uint64_t seed)
    : model(source.clone()), rng(seed)
{
    // clone() copies rng_ pointers as-is; point every noise-enabled
    // codesign layer (skip interiors included) at this replica's own
    // source instead, so a replica never shares the primary's
    // (non-thread-safe) rng with worker 0. Noiseless layers stay
    // noiseless, matching the primary exactly.
    bindModelNoiseRng(model, &rng);
    params = model.params();
}

void
DonnTaskBase::buildReplicas(const std::vector<uint64_t> &seeds)
{
    // Rebuilt every epoch: clones capture the current tau/gamma annealing
    // state and detector calibration, and per-epoch seeds keep Gumbel
    // noise streams deterministic for a fixed worker count.
    replicas_.clear();
    replicas_.reserve(seeds.size());
    for (uint64_t seed : seeds)
        replicas_.push_back(std::make_unique<Replica>(model_, seed));
}

std::vector<ParamView>
DonnTaskBase::replicaParams(std::size_t r)
{
    return replicas_[r]->params;
}

void
DonnTaskBase::zeroReplicaGrad(std::size_t r)
{
    replicas_[r]->model.zeroGrad();
}

SampleResult
DonnTaskBase::trainSampleOn(std::size_t r, std::size_t index)
{
    return sampleStep(replicas_[r]->model, index);
}

void
DonnTaskBase::syncReplicas()
{
    std::vector<ParamView> main_params = model_.params();
    for (auto &replica : replicas_) {
        for (std::size_t p = 0; p < main_params.size(); ++p)
            *replica->params[p].value = *main_params[p].value;
        replica->model.detector().setAmpFactor(model_.detector().ampFactor());
    }
}

void
DonnTaskBase::setPerturbationSpec(const PerturbationSpec &spec)
{
    if (!spec.active()) {
        clearPerturbation();
        perturb_sampler_.reset();
        return;
    }
    perturb_sampler_ = std::make_unique<PerturbationSampler>(
        spec, modelLayerHops(model_), model_.hopPropagator().get());
}

void
DonnTaskBase::samplePerturbation(uint64_t draw_seed)
{
    if (!perturb_sampler_)
        return;
    // One shared realization for the primary and every replica: the
    // values are seed-determined (identical at any worker count) and
    // read-only while workers are in flight.
    perturb_sampler_->sample(draw_seed, perturb_realization_);
    model_.setPerturbation(&perturb_realization_);
    for (auto &replica : replicas_)
        replica->model.setPerturbation(&perturb_realization_);
}

void
DonnTaskBase::clearPerturbation()
{
    model_.setPerturbation(nullptr);
    for (auto &replica : replicas_)
        replica->model.setPerturbation(nullptr);
}

// --------------------------------------------------------------------------
// ClassificationTask
// --------------------------------------------------------------------------

ClassificationTask::ClassificationTask(DonnModel &model,
                                       const ClassDataset &train,
                                       const ClassDataset *test)
    : DonnTaskBase(model),
      own_source_(std::make_unique<InMemoryClassSource>(train)),
      source_(own_source_.get()), test_(test)
{}

ClassificationTask::ClassificationTask(DonnModel &model, ClassSource &train,
                                       const ClassDataset *test)
    : DonnTaskBase(model), source_(&train), test_(test)
{}

void
ClassificationTask::calibrate()
{
    if (config_.gamma > 0)
        applyModelGamma(model_, config_.gamma);

    std::size_t probe = config_.calib_probe > 0 ? config_.calib_probe : 16;
    probe = std::min(probe, source_->size());
    if (probe == 0)
        return;
    source_->stageIndices(0, probe);
    Real mean_top = 0;
    model_.detector().setAmpFactor(1.0);
    for (std::size_t i = 0; i < probe; ++i) {
        Field u = model_.encode(source_->image(i));
        std::vector<Real> logits = model_.inferLogitsInPlace(
            u, PropagationWorkspace::threadLocal());
        mean_top += *std::max_element(logits.begin(), logits.end());
    }
    mean_top /= static_cast<Real>(probe);
    if (mean_top > 0)
        model_.detector().setAmpFactor(config_.calib_target / mean_top);
    LR_LOG(Debug) << "calibrated amp_factor="
                  << model_.detector().ampFactor();
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
    TaskMetrics metrics;
    if (test_ == nullptr || test_->size() == 0)
        return metrics;
    const ClassDataset &data = *test_;

    std::vector<std::uint8_t> hit1(data.size(), 0);
    std::vector<std::uint8_t> hit3(data.size(), 0);
    ThreadPool::global().parallelFor(data.size(), [&](std::size_t i) {
        std::vector<Real> logits =
            model_.detector().readout(
                model_.inferField(model_.encode(data.images[i])));
        hit1[i] = topKContains(logits, data.labels[i], 1) ? 1 : 0;
        hit3[i] = topKContains(logits, data.labels[i], 3) ? 1 : 0;
    });

    std::size_t top1 = 0, top3 = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        top1 += hit1[i];
        top3 += hit3[i];
    }
    metrics.primary = static_cast<Real>(top1) / data.size();
    metrics.top3 = static_cast<Real>(top3) / data.size();
    return metrics;
}

// --------------------------------------------------------------------------
// SegmentationTask
// --------------------------------------------------------------------------

SegmentationTask::SegmentationTask(DonnModel &model, const SegDataset &train,
                                   const SegDataset *test)
    : DonnTaskBase(model),
      own_source_(std::make_unique<InMemorySegSource>(train)),
      source_(own_source_.get()), test_(test)
{}

SegmentationTask::SegmentationTask(DonnModel &model, SegSource &train,
                                   const SegDataset *test)
    : DonnTaskBase(model), source_(&train), test_(test)
{}

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

RgbTask::Replica::Replica(const MultiChannelDonn &source, uint64_t seed)
    : model(source.clone()), rng(seed)
{
    for (std::size_t ch = 0; ch < model.numChannels(); ++ch)
        bindModelNoiseRng(model.channel(ch), &rng);
    params = model.params();
}

RgbTask::RgbTask(MultiChannelDonn &model, const RgbDataset &train,
                 const RgbDataset *test)
    : model_(model),
      own_source_(std::make_unique<InMemoryRgbSource>(train)),
      source_(own_source_.get()), test_(test)
{}

RgbTask::RgbTask(MultiChannelDonn &model, RgbSource &train,
                 const RgbDataset *test)
    : model_(model), source_(&train), test_(test)
{}

void
RgbTask::calibrate()
{
    std::size_t probe = config_.calib_probe > 0 ? config_.calib_probe : 8;
    probe = std::min(probe, source_->size());
    if (probe == 0)
        return;
    source_->stageIndices(0, probe);
    Real mean_top = 0;
    for (std::size_t ch = 0; ch < model_.numChannels(); ++ch)
        model_.channel(ch).detector().setAmpFactor(1.0);
    for (std::size_t i = 0; i < probe; ++i) {
        std::vector<Real> logits =
            model_.inferLogits(model_.encode(source_->image(i)));
        mean_top += *std::max_element(logits.begin(), logits.end());
    }
    mean_top /= static_cast<Real>(probe);
    if (mean_top > 0) {
        Real amp = config_.calib_target / mean_top;
        for (std::size_t ch = 0; ch < model_.numChannels(); ++ch)
            model_.channel(ch).detector().setAmpFactor(amp);
    }
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

SampleResult
RgbTask::trainSample(std::size_t index)
{
    return sampleStep(model_, index);
}

void
RgbTask::buildReplicas(const std::vector<uint64_t> &seeds)
{
    replicas_.clear();
    replicas_.reserve(seeds.size());
    for (uint64_t seed : seeds)
        replicas_.push_back(std::make_unique<Replica>(model_, seed));
}

std::vector<ParamView>
RgbTask::replicaParams(std::size_t r)
{
    return replicas_[r]->params;
}

void
RgbTask::zeroReplicaGrad(std::size_t r)
{
    replicas_[r]->model.zeroGrad();
}

SampleResult
RgbTask::trainSampleOn(std::size_t r, std::size_t index)
{
    return sampleStep(replicas_[r]->model, index);
}

void
RgbTask::syncReplicas()
{
    std::vector<ParamView> main_params = model_.params();
    for (auto &replica : replicas_) {
        for (std::size_t p = 0; p < main_params.size(); ++p)
            *replica->params[p].value = *main_params[p].value;
        for (std::size_t ch = 0; ch < model_.numChannels(); ++ch)
            replica->model.channel(ch).detector().setAmpFactor(
                model_.channel(ch).detector().ampFactor());
    }
}

void
RgbTask::setTau(Real tau)
{
    for (std::size_t ch = 0; ch < model_.numChannels(); ++ch)
        applyModelTau(model_.channel(ch), tau);
}

TaskMetrics
RgbTask::evaluate()
{
    TaskMetrics metrics;
    if (test_ == nullptr || test_->size() == 0)
        return metrics;
    const RgbDataset &data = *test_;
    std::vector<std::uint8_t> hit1(data.size(), 0);
    std::vector<std::uint8_t> hit3(data.size(), 0);
    ThreadPool::global().parallelFor(data.size(), [&](std::size_t i) {
        std::vector<Real> logits =
            model_.inferLogits(model_.encode(data.images[i]));
        hit1[i] = topKContains(logits, data.labels[i], 1) ? 1 : 0;
        hit3[i] = topKContains(logits, data.labels[i], 3) ? 1 : 0;
    });
    std::size_t top1 = 0, top3 = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        top1 += hit1[i];
        top3 += hit3[i];
    }
    metrics.primary = static_cast<Real>(top1) / data.size();
    metrics.top3 = static_cast<Real>(top3) / data.size();
    return metrics;
}

bool
RgbTask::save(const std::string &path) const
{
    return model_.save(path);
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
    if (data.size() == 0)
        return 0;
    std::vector<std::uint8_t> hit(data.size(), 0);
    ThreadPool::global().parallelFor(data.size(), [&](std::size_t i) {
        std::vector<Real> logits =
            model.detector().readout(
                model.inferField(model.encode(data.images[i])));
        hit[i] = topKContains(logits, data.labels[i], k) ? 1 : 0;
    });
    std::size_t hits = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        hits += hit[i];
    return static_cast<Real>(hits) / data.size();
}

Real
evaluateRgbAccuracy(MultiChannelDonn &model, const RgbDataset &data)
{
    return evaluateRgbTopK(model, data, 1);
}

Real
evaluateRgbTopK(MultiChannelDonn &model, const RgbDataset &data,
                std::size_t k)
{
    if (data.size() == 0)
        return 0;
    std::vector<std::uint8_t> hit(data.size(), 0);
    ThreadPool::global().parallelFor(data.size(), [&](std::size_t i) {
        std::vector<Real> logits =
            model.inferLogits(model.encode(data.images[i]));
        hit[i] = topKContains(logits, data.labels[i], k) ? 1 : 0;
    });
    std::size_t hits = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        hits += hit[i];
    return static_cast<Real>(hits) / data.size();
}

} // namespace lightridge
