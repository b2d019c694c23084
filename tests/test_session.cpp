/**
 * @file
 * Session engine behaviours across task kinds: bit-for-bit parity of its
 * one epoch loop, at one worker and at 2 and 4 (worker 0 on the primary
 * model, W-1 replicas), against independent reference loops;
 * data-parallel training for segmentation/RGB, top-k reporting,
 * per-epoch callbacks, calibration kept across fit(), the non-finite
 * loss guard, and the input edges (batch 0, an empty training set).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>

#include "api/experiment.hpp"
#include "core/session.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "optics/diffraction.hpp"

namespace lightridge {
namespace {

SystemSpec
spec16()
{
    SystemSpec spec;
    spec.size = 16;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{16, 36e-6}, 532e-9);
    return spec;
}

DonnModel
classModel(uint64_t seed)
{
    Rng rng(seed);
    return ModelBuilder(spec16(), Laser{})
        .diffractiveLayers(2, 1.0, &rng)
        .detectorGrid(10, 1)
        .build();
}

DonnModel
segModel(uint64_t seed)
{
    Rng rng(seed);
    DonnModel model(spec16(), Laser{});
    for (int l = 0; l < 2; ++l)
        model.addLayer(std::make_unique<DiffractiveLayer>(
            model.hopPropagator(), 1.0, &rng));
    model.setDetector(DetectorPlane(DetectorPlane::gridLayout(16, 2, 2)));
    return model;
}

MultiChannelDonn
rgbModel(uint64_t seed, std::size_t classes)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(std::make_unique<DonnModel>(
            ModelBuilder(spec16(), Laser{})
                .diffractiveLayers(1, 1.0, &rng)
                .detectorGrid(classes, 1)
                .build()));
    return MultiChannelDonn(std::move(channels));
}

/** Shuffled index order, identical to the engine's per-epoch recipe. */
std::vector<std::size_t>
refOrder(std::size_t n, Rng *rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng->engine());
    return order;
}

/**
 * Reference reimplementation of the one-worker segmentation recipe:
 * calibration (probe 8), shuffled per-sample forward/backward with
 * batch-accumulated gradients and an Adam step per batch. The epoch loss
 * adds up per-batch loss sums, as the Session does at any worker count.
 */
std::vector<Real>
legacySegLosses(DonnModel &model, const SegDataset &train,
                const TrainConfig &cfg)
{
    Adam optimizer(cfg.lr);
    optimizer.attach(model.params());
    Rng rng(cfg.seed);

    Real intensity_scale = 1.0;
    Real mask_mean = 0.25;
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    std::size_t probe = std::min<std::size_t>(8, train.size());
    Real mean_intensity = 0, mean_mask = 0;
    for (std::size_t i = 0; i < probe; ++i) {
        Field u = model.encode(train.images[i]);
        model.forwardFieldInPlace(u, true, workspace);
        mean_intensity += u.intensity().mean();
        mean_mask += train.masks[i].mean();
    }
    mean_intensity /= static_cast<Real>(probe);
    mean_mask /= static_cast<Real>(probe);
    if (mean_mask > 0)
        mask_mean = mean_mask;
    if (mean_intensity > 0)
        intensity_scale = mask_mean / mean_intensity;

    const Grid grid = model.spec().grid();
    std::vector<Real> losses;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::vector<std::size_t> order = refOrder(train.size(), &rng);
        Real loss_sum = 0;
        Real batch_loss = 0;
        std::size_t in_batch = 0;
        model.zeroGrad();
        for (std::size_t idx : order) {
            Field u = model.encode(train.images[idx]);
            model.forwardFieldInPlace(u, true, workspace);
            RealMap target = (train.masks[idx].rows() == grid.n)
                                 ? train.masks[idx]
                                 : resizeBilinear(train.masks[idx], grid.n,
                                                  grid.n);
            // Overwrites u with the loss gradient at the detector plane.
            batch_loss += intensityMseLossInPlace(u, target, intensity_scale);
            model.backwardFieldInPlace(u, workspace);
            if (++in_batch == cfg.batch) {
                loss_sum += batch_loss;
                batch_loss = 0;
                optimizer.step();
                model.zeroGrad();
                in_batch = 0;
            }
        }
        if (in_batch > 0) {
            loss_sum += batch_loss;
            optimizer.step();
            model.zeroGrad();
        }
        losses.push_back(loss_sum / train.size());
    }
    return losses;
}

/**
 * Reference reimplementation of the one-worker RGB recipe: calibration
 * (probe 8, shared amp factor), shuffled per-sample forward/backward,
 * Adam step per batch, epoch loss summed per batch.
 */
std::vector<Real>
legacyRgbLosses(MultiChannelDonn &model, const RgbDataset &train,
                const TrainConfig &cfg)
{
    Adam optimizer(cfg.lr);
    optimizer.attach(model.params());
    Rng rng(cfg.seed);

    std::size_t probe = std::min<std::size_t>(8, train.size());
    Real mean_top = 0;
    for (std::size_t ch = 0; ch < model.numChannels(); ++ch)
        model.channel(ch).detector().setAmpFactor(1.0);
    for (std::size_t i = 0; i < probe; ++i) {
        std::vector<Real> logits =
            model.inferLogits(model.encode(train.images[i]));
        mean_top += *std::max_element(logits.begin(), logits.end());
    }
    mean_top /= static_cast<Real>(probe);
    if (mean_top > 0)
        for (std::size_t ch = 0; ch < model.numChannels(); ++ch)
            model.channel(ch).detector().setAmpFactor(cfg.calib_target /
                                                      mean_top);

    // Per channel: stack forward, readout merged on the shared detector,
    // and the shared dL/dlogits unwound through each channel's detector.
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const std::size_t classes = model.channel(0).detector().numClasses();
    Field g;
    std::vector<Real> losses;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::vector<std::size_t> order = refOrder(train.size(), &rng);
        Real loss_sum = 0;
        Real batch_loss = 0;
        std::size_t in_batch = 0;
        model.zeroGrad();
        for (std::size_t idx : order) {
            std::vector<Field> fields = model.encode(train.images[idx]);
            std::vector<Real> logits(classes, 0.0);
            for (std::size_t ch = 0; ch < model.numChannels(); ++ch) {
                DonnModel &channel = model.channel(ch);
                channel.forwardFieldInPlace(fields[ch], true, workspace);
                std::vector<Real> part =
                    channel.detector().readout(fields[ch]);
                for (std::size_t k = 0; k < classes; ++k)
                    logits[k] += part[k];
            }
            LossResult loss =
                classificationLoss(cfg.loss, logits, train.labels[idx]);
            batch_loss += loss.value;
            for (std::size_t ch = 0; ch < model.numChannels(); ++ch) {
                DonnModel &channel = model.channel(ch);
                channel.detector().backwardForInto(fields[ch], loss.dlogits,
                                                   g);
                channel.backwardFieldInPlace(g, workspace);
            }
            if (++in_batch == cfg.batch) {
                loss_sum += batch_loss;
                batch_loss = 0;
                optimizer.step();
                model.zeroGrad();
                in_batch = 0;
            }
        }
        if (in_batch > 0) {
            loss_sum += batch_loss;
            optimizer.step();
            model.zeroGrad();
        }
        losses.push_back(loss_sum / train.size());
    }
    return losses;
}

TEST(SessionParity, SegmentationSerialMatchesLegacyBitForBit)
{
    CityConfig ccfg;
    ccfg.image_size = 16;
    SegDataset train = makeSynthCity(10, 1, ccfg);

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 4;
    cfg.lr = 0.08;
    cfg.seed = 11;
    cfg.workers = 1;

    DonnModel ref_model = segModel(5);
    std::vector<Real> ref = legacySegLosses(ref_model, train, cfg);

    DonnModel model = segModel(5);
    SegmentationTask task(model, train);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    ASSERT_EQ(history.size(), ref.size());
    for (std::size_t e = 0; e < ref.size(); ++e)
        EXPECT_EQ(history[e].train_loss, ref[e]) << "epoch " << e;
}

TEST(SessionParity, RgbSerialMatchesLegacyBitForBit)
{
    SceneConfig scfg;
    scfg.image_size = 16;
    RgbDataset train = makeSynthScenes(12, 1, scfg);

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 4;
    cfg.lr = 0.03;
    cfg.seed = 13;
    cfg.workers = 1;

    MultiChannelDonn ref_model = rgbModel(5, train.num_classes);
    std::vector<Real> ref = legacyRgbLosses(ref_model, train, cfg);

    MultiChannelDonn model = rgbModel(5, train.num_classes);
    RgbTask task(model, train);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    ASSERT_EQ(history.size(), ref.size());
    for (std::size_t e = 0; e < ref.size(); ++e)
        EXPECT_EQ(history[e].train_loss, ref[e]) << "epoch " << e;
}

TEST(SessionParallel, SegmentationWorkersTrainAsWellAsSerial)
{
    CityConfig ccfg;
    ccfg.image_size = 16;
    SegDataset train = makeSynthCity(16, 1, ccfg);

    auto run = [&](std::size_t workers) {
        DonnModel model = segModel(7);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch = 8;
        cfg.lr = 0.08;
        cfg.workers = workers;
        SegmentationTask task(model, train);
        return Session(task, cfg).fit();
    };

    auto serial = run(1);
    auto parallel = run(3);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_LE(parallel.back().train_loss, parallel.front().train_loss);
    for (const EpochStats &stats : parallel)
        EXPECT_TRUE(std::isfinite(stats.train_loss));
    EXPECT_NEAR(parallel.back().train_loss, serial.back().train_loss,
                0.5 * std::abs(serial.back().train_loss) + 0.05);
}

TEST(SessionParallel, RgbWorkersTrainAsWellAsSerial)
{
    SceneConfig scfg;
    scfg.image_size = 16;
    RgbDataset train = makeSynthScenes(18, 1, scfg);

    auto run = [&](std::size_t workers) {
        MultiChannelDonn model = rgbModel(7, train.num_classes);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch = 6;
        cfg.lr = 0.03;
        cfg.workers = workers;
        RgbTask task(model, train);
        return Session(task, cfg).fit();
    };

    auto serial = run(1);
    auto parallel = run(3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const EpochStats &stats : parallel)
        EXPECT_TRUE(std::isfinite(stats.train_loss));
    EXPECT_NEAR(parallel.back().train_loss, serial.back().train_loss,
                0.5 * std::abs(serial.back().train_loss) + 0.05);
}

TEST(SessionMetrics, TopKReportedAndMonotone)
{
    ClassDataset train = makeSynthDigits(40, 1);
    ClassDataset test = makeSynthDigits(20, 2);
    DonnModel model = classModel(3);

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.workers = 1;
    ClassificationTask task(model, train, &test);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    for (const EpochStats &stats : history) {
        EXPECT_GE(stats.test_top3, stats.test_acc);
        EXPECT_LE(stats.test_top3, 1.0);
    }

    Real top1 = evaluateTopK(model, test, 1);
    Real top3 = evaluateTopK(model, test, 3);
    EXPECT_EQ(top1, evaluateAccuracy(model, test));
    EXPECT_GE(top3, top1);
    EXPECT_EQ(evaluateTopK(model, test, 10), 1.0); // k = all classes
}

TEST(SessionCallbacks, EarlyStopTruncatesHistory)
{
    ClassDataset train = makeSynthDigits(20, 1);
    DonnModel model = classModel(3);

    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.workers = 1;
    ClassificationTask task(model, train);
    Session session(task, cfg);
    session.addCallback(
        [](const EpochStats &stats, Session &) { return stats.epoch < 1; });
    std::vector<EpochStats> history = session.fit();
    EXPECT_EQ(history.size(), 2u); // stopped after epoch 1
}

TEST(SessionCallbacks, CheckpointCallbackSavesModel)
{
    ClassDataset train = makeSynthDigits(20, 1);
    ClassDataset test = makeSynthDigits(10, 2);
    DonnModel model = classModel(3);

    const std::string path = "/tmp/lr_session_checkpoint.json";
    std::remove(path.c_str());

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.workers = 1;
    ClassificationTask task(model, train, &test);
    Session session(task, cfg);
    session.addCallback(checkpointBestCallback(path));
    session.fit();

    DonnModel restored = DonnModel::load(path);
    EXPECT_EQ(restored.depth(), model.depth());
    std::remove(path.c_str());
}

TEST(SessionCallbacks, EarlyStopCallbackStopsOnPlateau)
{
    ClassDataset train = makeSynthDigits(20, 1);
    DonnModel model = classModel(3);

    TrainConfig cfg;
    cfg.epochs = 40;
    cfg.lr = 0.0;        // zero step size: loss plateaus immediately
    cfg.shuffle = false; // fixed accumulation order => exactly equal loss
    cfg.workers = 1;
    ClassificationTask task(model, train);
    Session session(task, cfg);
    session.addCallback(earlyStopCallback(2));
    std::vector<EpochStats> history = session.fit();
    EXPECT_LT(history.size(), 40u);
}

/** One classification sample's forward/backward; returns its loss. */
Real
referenceStep(DonnModel &model, const ClassDataset &train, std::size_t idx,
              LossKind kind)
{
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    Field u = model.encode(train.images[idx]);
    std::vector<Real> logits = model.forwardLogitsInPlace(u, true, workspace);
    LossResult loss = classificationLoss(kind, logits, train.labels[idx]);
    model.backwardFromLogitsInPlace(loss.dlogits, u, workspace);
    return loss.value;
}

/**
 * One RGB sample's forward/backward, unwound per channel as in
 * legacyRgbLosses (independent of MultiChannelDonn's in-place training
 * path); returns its loss.
 */
Real
referenceStep(MultiChannelDonn &model, const RgbDataset &train,
              std::size_t idx, LossKind kind)
{
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const std::size_t classes = model.channel(0).detector().numClasses();
    std::vector<Field> fields = model.encode(train.images[idx]);
    std::vector<Real> logits(classes, 0.0);
    for (std::size_t ch = 0; ch < model.numChannels(); ++ch) {
        DonnModel &channel = model.channel(ch);
        channel.forwardFieldInPlace(fields[ch], true, workspace);
        std::vector<Real> part = channel.detector().readout(fields[ch]);
        for (std::size_t k = 0; k < classes; ++k)
            logits[k] += part[k];
    }
    LossResult loss = classificationLoss(kind, logits, train.labels[idx]);
    Field g;
    for (std::size_t ch = 0; ch < model.numChannels(); ++ch) {
        DonnModel &channel = model.channel(ch);
        channel.detector().backwardForInto(fields[ch], loss.dlogits, g);
        channel.backwardFieldInPlace(g, workspace);
    }
    return loss.value;
}

/**
 * Reference reimplementation of the data-parallel replica schedule: per
 * epoch, fresh replicas clone the primary;
 * per batch, replica r trains samples r, r+active, ... sequentially;
 * replica gradients merge into the primary in fixed replica order; one
 * Adam step; parameters redistributed. Noise-free layers only, so clone
 * seeds do not matter.
 */
template <typename Model, typename Dataset>
std::vector<Real>
referenceSyncParallelLosses(Model &model, const Dataset &train,
                            const TrainConfig &cfg, std::size_t workers)
{
    Adam optimizer(cfg.lr);
    optimizer.attach(model.params());
    Rng rng(cfg.seed);
    std::vector<ParamView> main_params = model.params();

    std::vector<Real> losses;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::vector<std::size_t> order = refOrder(train.size(), &rng);
        std::vector<Model> replicas;
        for (std::size_t r = 0; r < workers; ++r)
            replicas.push_back(model.clone());
        Real loss_sum = 0;
        model.zeroGrad();
        for (std::size_t start = 0; start < order.size();
             start += cfg.batch) {
            std::size_t batch = std::min(cfg.batch, order.size() - start);
            std::size_t active = std::min(workers, batch);
            std::vector<Real> part(active, 0);
            for (std::size_t r = 0; r < active; ++r)
                for (std::size_t j = r; j < batch; j += active)
                    part[r] += referenceStep(replicas[r], train,
                                             order[start + j], cfg.loss);
            for (std::size_t r = 0; r < active; ++r) {
                loss_sum += part[r];
                std::vector<ParamView> rep_params = replicas[r].params();
                for (std::size_t p = 0; p < main_params.size(); ++p) {
                    const std::vector<Real> &src = *rep_params[p].grad;
                    std::vector<Real> &dst = *main_params[p].grad;
                    for (std::size_t i = 0; i < dst.size(); ++i)
                        dst[i] += src[i];
                }
                replicas[r].zeroGrad();
            }
            optimizer.step();
            model.zeroGrad();
            for (std::size_t r = 0; r < workers; ++r) {
                std::vector<ParamView> rep_params = replicas[r].params();
                for (std::size_t p = 0; p < main_params.size(); ++p)
                    *rep_params[p].value = *main_params[p].value;
            }
        }
        losses.push_back(loss_sum / train.size());
    }
    return losses;
}

/**
 * Train `TaskT` over a fresh model from `build` at 2 and 4 workers and
 * expect the per-epoch losses and the final parameters to equal the
 * reference schedule's bit for bit.
 */
template <typename TaskT, typename Build, typename Dataset>
void
expectMatchesSynchronousReference(const Build &build, const Dataset &train)
{
    for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
        SCOPED_TRACE(workers);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch = 5; // at 4 workers the last batch runs 3 active
        cfg.lr = 0.05;
        cfg.seed = 17;
        cfg.workers = workers;
        cfg.calibrate = false; // keep the reference loop minimal

        auto ref_model = build();
        std::vector<Real> reference =
            referenceSyncParallelLosses(ref_model, train, cfg, cfg.workers);

        auto model = build();
        TaskT task(model, train);
        std::vector<EpochStats> history = Session(task, cfg).fit();

        ASSERT_EQ(history.size(), reference.size());
        for (std::size_t e = 0; e < reference.size(); ++e)
            EXPECT_EQ(history[e].train_loss, reference[e]) << "epoch " << e;
        EXPECT_EQ(task.replicaCount(), workers - 1);
        const std::vector<ParamView> trained = model.params();
        const std::vector<ParamView> expected = ref_model.params();
        ASSERT_EQ(trained.size(), expected.size());
        for (std::size_t p = 0; p < trained.size(); ++p)
            EXPECT_EQ(*trained[p].value, *expected[p].value) << "param " << p;
    }
}

TEST(SessionParallel, MatchesSynchronousReferenceBitwise)
{
    // The epoch loop must reproduce the synchronous schedule bit for
    // bit, pinned against an independent reimplementation of that
    // schedule (not against itself), for the single-stack and the RGB
    // model. The reference clones W replicas; the Session trains worker
    // 0 on the primary and clones W - 1.
    {
        SCOPED_TRACE("classification");
        ClassDataset train = makeSynthDigits(13, 1); // ragged final batch
        expectMatchesSynchronousReference<ClassificationTask>(
            [] { return classModel(9); }, train);
    }
    {
        SCOPED_TRACE("rgb");
        SceneConfig scfg;
        scfg.image_size = 16;
        RgbDataset train = makeSynthScenes(13, 1, scfg);
        expectMatchesSynchronousReference<RgbTask>(
            [&] { return rgbModel(9, train.num_classes); }, train);
    }
}

TEST(SessionBehaviour, FitAfterCalibrateKeepsCalibration)
{
    // calibrate() documents that fit() will not calibrate again. One
    // epoch in between moves the phases, so a second calibration inside
    // fit() would land on a different intensity scale.
    CityConfig ccfg;
    ccfg.image_size = 16;
    SegDataset train = makeSynthCity(8, 2, ccfg);

    DonnModel model = segModel(5);
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.lr = 0.08;
    cfg.workers = 1;
    SegmentationTask task(model, train);
    Session session(task, cfg);
    session.calibrate();
    const Real scale = task.intensityScale();
    EXPECT_NE(scale, 1.0);
    session.trainEpoch();
    session.fit();
    EXPECT_EQ(task.intensityScale(), scale);
}

/** ClassificationTask whose loss and one gradient entry turn NaN on one
 *  sample index. */
class PoisonedTask : public ClassificationTask
{
  public:
    using ClassificationTask::ClassificationTask;

    std::size_t poison_index = static_cast<std::size_t>(-1);
    bool poison_loss = true; // false: the gradient alone goes non-finite

  protected:
    SampleResult
    sampleStep(DonnModel &model, std::size_t index) override
    {
        SampleResult result = ClassificationTask::sampleStep(model, index);
        if (index == poison_index) {
            if (poison_loss)
                result.loss = std::nan("");
            (*model.params()[0].grad)[0] = std::nan("");
        }
        return result;
    }
};

TEST(SessionBehaviour, NonFiniteLossStopsBeforeTheOptimizerStep)
{
    ClassDataset train = makeSynthDigits(16, 1);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(workers);
        DonnModel model = classModel(3);
        TrainConfig cfg;
        cfg.batch = 4;
        cfg.shuffle = false; // sample 6 lands in batch 1
        cfg.workers = workers;
        PoisonedTask task(model, train);
        Session session(task, cfg);
        session.trainEpoch(); // epoch 0 trains clean

        task.poison_index = 6;
        try {
            session.trainEpoch();
            FAIL() << "expected a non-finite loss error";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("non-finite training loss"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("epoch 1, batch 1"), std::string::npos)
                << what;
        }
        // The poisoned batch never stepped, so its NaN gradient never
        // reached the parameters.
        for (Real v : *task.params()[0].value)
            ASSERT_TRUE(std::isfinite(v));
    }
}

TEST(SessionBehaviour, NonFiniteGradientStopsBeforeTheOptimizerStep)
{
    ClassDataset train = makeSynthDigits(16, 1);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(workers);
        DonnModel model = classModel(3);
        TrainConfig cfg;
        cfg.batch = 4;
        cfg.shuffle = false; // sample 2 lands in batch 0
        cfg.workers = workers;
        PoisonedTask task(model, train);
        Session session(task, cfg);
        session.trainEpoch(); // epoch 0 trains clean
        std::vector<std::vector<Real>> before;
        for (const ParamView &param : task.params())
            before.push_back(*param.value);

        task.poison_index = 2;
        task.poison_loss = false;
        try {
            session.trainEpoch();
            FAIL() << "expected a non-finite gradient error";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("non-finite gradient"), std::string::npos)
                << what;
            EXPECT_NE(what.find("epoch 1, batch 0"), std::string::npos)
                << what;
        }
        // The loss stayed finite, yet the first batch of the epoch never
        // stepped: every parameter is exactly as epoch 0 left it.
        const std::vector<ParamView> after = task.params();
        ASSERT_EQ(after.size(), before.size());
        for (std::size_t p = 0; p < after.size(); ++p)
            ASSERT_EQ(*after[p].value, before[p]) << after[p].name;
    }
}

TEST(SessionBehaviour, ZeroBatchThrowsInvalidArgument)
{
    ClassDataset train = makeSynthDigits(4, 1);
    for (std::size_t workers : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}}) {
        SCOPED_TRACE(workers);
        DonnModel model = classModel(3);
        ClassificationTask task(model, train);
        TrainConfig cfg;
        cfg.batch = 0;
        cfg.workers = workers;
        EXPECT_THROW(Session(task, cfg), std::invalid_argument);
    }
}

TEST(SessionBehaviour, EmptyTrainingSetTrainsZeroBatches)
{
    // resolveWorkers() is 0 for an empty set; the loop still runs as
    // one worker, over no batch, and clones nothing.
    ClassDataset train = makeSynthDigits(0, 1);
    for (std::size_t workers : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}}) {
        SCOPED_TRACE(workers);
        DonnModel model = classModel(3);
        const std::vector<Real> before = *model.params()[0].value;
        ClassificationTask task(model, train);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.workers = workers;
        EXPECT_EQ(Session::resolveWorkers(cfg, train.size()), 0u);
        std::vector<EpochStats> history = Session(task, cfg).fit();
        ASSERT_EQ(history.size(), 2u);
        for (const EpochStats &stats : history) {
            EXPECT_EQ(stats.train_loss, 0.0);
            EXPECT_EQ(stats.train_acc, 0.0);
        }
        EXPECT_EQ(task.replicaCount(), 0u);
        EXPECT_EQ(*model.params()[0].value, before);
    }
}

TEST(SessionBehaviour, SpecWithNoTrainingSamplesRuns)
{
    // examples/specs/digits_tiny.json with "data": {"train": 0}: the run
    // completes and reports the 0 workers training resolved to.
    const ExperimentSpec spec = ExperimentSpec::fromJson(Json::parse(R"({
        "name": "digits_tiny",
        "task": "classification",
        "dataset": "digits",
        "data": {"train": 0, "test": 120, "seed": 1},
        "system": {"size": 32, "pixel": 3.6e-05, "distance": 0},
        "model_seed": 7,
        "layers": [{"kind": "diffractive", "count": 2}],
        "detector": {"classes": 10, "det_size": 3},
        "train": {"epochs": 2, "batch": 16, "lr": 0.05, "seed": 7}
    })"));
    ExperimentResult result = runExperiment(spec);
    EXPECT_EQ(result.workers_used, 0u);
    ASSERT_EQ(result.history.size(), 2u);
    EXPECT_EQ(result.history.back().train_loss, 0.0);
}

TEST(SessionMultiChannel, CloneIsIndependent)
{
    MultiChannelDonn model = rgbModel(1, 6);
    MultiChannelDonn copy = model.clone();
    ASSERT_EQ(copy.numChannels(), model.numChannels());

    // Perturb the copy; the original's parameters stay untouched.
    std::vector<ParamView> params = copy.params();
    ASSERT_FALSE(params.empty());
    (*params[0].value)[0] += 1.0;
    std::vector<ParamView> orig = model.params();
    EXPECT_NE((*params[0].value)[0], (*orig[0].value)[0]);
}

} // namespace
} // namespace lightridge
