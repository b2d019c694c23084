/**
 * @file
 * Session-level behaviours on the classification task: calibration
 * effects, epoch accounting, evaluation metrics, DSE sweep/guided-search
 * plumbing.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "dse/dse.hpp"

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

TEST(SessionBehaviour, CalibrationSetsHealthyLogitScale)
{
    ClassDataset data = makeSynthDigits(40, 1);
    Rng rng(2);
    DonnModel model = ModelBuilder(spec16(), Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    TrainConfig tc;
    tc.calib_target = 4.0;
    ClassificationTask task(model, data);
    Session session(task, tc);
    session.calibrate();

    // Mean top logit over probe samples lands near the target.
    Real mean_top = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        Field u = model.encode(data.images[i]);
        std::vector<Real> logits =
            model.inferLogitsInPlace(u, PropagationWorkspace::threadLocal());
        mean_top += *std::max_element(logits.begin(), logits.end());
    }
    mean_top /= 16;
    EXPECT_NEAR(mean_top, 4.0, 1.5);
}

TEST(SessionBehaviour, ParallelWorkersTrainAsWellAsSerial)
{
    ClassDataset train = makeSynthDigits(60, 3);

    auto runFit = [&](std::size_t workers) {
        Rng rng(5);
        DonnModel model = ModelBuilder(spec16(), Laser{})
                              .diffractiveLayers(2, 1.0, &rng)
                              .detectorGrid(10, 1)
                              .build();
        TrainConfig tc;
        tc.epochs = 3;
        tc.batch = 8;
        tc.workers = workers;
        ClassificationTask task(model, train);
        return Session(task, tc).fit();
    };

    auto serial = runFit(1);
    auto parallel = runFit(3);
    ASSERT_EQ(serial.size(), parallel.size());

    // Same data, same init: the data-parallel pipeline reorders gradient
    // accumulation (and per-replica noise streams) but must train to a
    // comparable loss, not diverge.
    EXPECT_LT(parallel.back().train_loss, parallel.front().train_loss);
    EXPECT_NEAR(parallel.back().train_loss, serial.back().train_loss,
                0.5 * std::abs(serial.back().train_loss) + 0.05);
    for (const EpochStats &stats : parallel) {
        EXPECT_TRUE(std::isfinite(stats.train_loss));
        EXPECT_GE(stats.train_acc, 0.0);
        EXPECT_LE(stats.train_acc, 1.0);
    }
}

TEST(SessionBehaviour, FitReturnsOneStatPerEpoch)
{
    ClassDataset train = makeSynthDigits(30, 3);
    ClassDataset test = makeSynthDigits(20, 4);
    Rng rng(5);
    DonnModel model = ModelBuilder(spec16(), Laser{})
                          .diffractiveLayers(1, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    TrainConfig tc;
    tc.epochs = 4;
    ClassificationTask task(model, train, &test);
    auto history = Session(task, tc).fit();
    ASSERT_EQ(history.size(), 4u);
    for (int e = 0; e < 4; ++e) {
        EXPECT_EQ(history[e].epoch, e);
        EXPECT_GE(history[e].test_acc, 0.0);
        EXPECT_LE(history[e].test_acc, 1.0);
        EXPECT_GT(history[e].seconds, 0.0);
    }
}

TEST(SessionBehaviour, EvaluateOnEmptyDatasetIsZero)
{
    Rng rng(7);
    DonnModel model = ModelBuilder(spec16(), Laser{})
                          .diffractiveLayers(1, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset empty;
    empty.num_classes = 10;
    EXPECT_EQ(evaluateAccuracy(model, empty), 0.0);
}

TEST(SessionBehaviour, ConfidenceIsProbability)
{
    ClassDataset data = makeSynthDigits(20, 9);
    Rng rng(11);
    DonnModel model = ModelBuilder(spec16(), Laser{})
                          .diffractiveLayers(1, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    EvalResult r = evaluateWithConfidence(model, data);
    EXPECT_GE(r.confidence, 0.1); // at least uniform (1/classes)
    EXPECT_LE(r.confidence, 1.0);
}

TEST(DsePlumbing, SweepCoversTheRequestedGrid)
{
    SweepGrid grid;
    grid.unit_steps = 2;
    grid.dist_steps = 3;
    grid.unit_min = 30;
    grid.unit_max = 90;
    grid.dist_min = 0.05;
    grid.dist_max = 0.15;
    QuickEvalConfig qe;
    qe.system_size = 16;
    qe.depth = 1;
    qe.train_samples = 40;
    qe.test_samples = 20;
    qe.det_size = 1;
    qe.pad_factor = 1;
    auto points = sweepDesignSpace(532e-9, grid, qe);
    ASSERT_EQ(points.size(), 6u);
    EXPECT_DOUBLE_EQ(points.front().design.unit_size, 30 * 532e-9);
    EXPECT_DOUBLE_EQ(points.back().design.unit_size, 90 * 532e-9);
    EXPECT_DOUBLE_EQ(points.front().design.distance, 0.05);
    EXPECT_DOUBLE_EQ(points.back().design.distance, 0.15);
    for (const DsePoint &p : points) {
        EXPECT_GE(p.accuracy, 0.0);
        EXPECT_LE(p.accuracy, 1.0);
    }
}

TEST(DsePlumbing, GuidedSearchReportsEmulationBudget)
{
    DseEngine engine;
    std::vector<DsePoint> data;
    for (int i = 0; i < 12; ++i) {
        DsePoint p;
        p.design = DesignPoint{500e-9, (20.0 + 8 * i) * 500e-9,
                               0.05 + 0.01 * i};
        p.accuracy = 0.2 + 0.05 * (i % 4);
        data.push_back(p);
    }
    engine.addTrainingData(data);
    engine.fitModel();

    SweepGrid grid;
    grid.unit_steps = 3;
    grid.dist_steps = 3;
    QuickEvalConfig qe;
    qe.system_size = 16;
    qe.depth = 1;
    qe.train_samples = 30;
    qe.test_samples = 20;
    qe.det_size = 1;
    qe.pad_factor = 1;
    std::size_t used = 0;
    DsePoint star = engine.guidedSearch(532e-9, grid, qe, 2, &used);
    EXPECT_EQ(used, 2u);
    EXPECT_GE(star.accuracy, 0.0);
    EXPECT_DOUBLE_EQ(star.design.wavelength, 532e-9);
}

TEST(DsePlumbing, EngineTrainingSizeAccumulates)
{
    DseEngine engine;
    EXPECT_EQ(engine.trainingSize(), 0u);
    std::vector<DsePoint> batch(5);
    engine.addTrainingData(batch);
    engine.addTrainingData(batch);
    EXPECT_EQ(engine.trainingSize(), 10u);
}

} // namespace
} // namespace lightridge
