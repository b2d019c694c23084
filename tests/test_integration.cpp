/**
 * @file
 * Cross-module integration tests: whole design-flow scenarios exercised
 * end to end at miniature scale - train/save/load/deploy round trips,
 * codesign recovering the deployment gap, segmentation and RGB training
 * improving over their initializations, tau annealing, determinism.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/layer_norm.hpp"
#include "core/skip.hpp"
#include "core/session.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "hardware/deploy.hpp"
#include "hardware/to_system.hpp"

namespace lightridge {
namespace {

SystemSpec
miniSpec(std::size_t n = 32)
{
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    return spec;
}

TEST(Integration, TrainBeatsUntrainedAndChance)
{
    ClassDataset train = makeSynthDigits(300, 1);
    ClassDataset test = makeSynthDigits(150, 2);

    Rng rng(3);
    DonnModel model = ModelBuilder(miniSpec(), Laser{})
                          .diffractiveLayers(3, 1.0, &rng)
                          .detectorGrid(10, 3)
                          .build();
    Real before = evaluateAccuracy(model, test);

    TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 0.03;
    ClassificationTask task(model, train);
    Session(task, tc).fit();
    Real after = evaluateAccuracy(model, test);

    EXPECT_GT(after, before);
    EXPECT_GT(after, 0.5); // well above 10-class chance
}

TEST(Integration, SaveLoadPreservesTrainedAccuracy)
{
    ClassDataset train = makeSynthDigits(200, 3);
    ClassDataset test = makeSynthDigits(100, 4);
    Rng rng(5);
    DonnModel model = ModelBuilder(miniSpec(), Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 3)
                          .build();
    TrainConfig tc;
    tc.epochs = 2;
    tc.lr = 0.03;
    ClassificationTask task(model, train);
    Session(task, tc).fit();
    Real acc = evaluateAccuracy(model, test);

    const std::string path = "/tmp/lr_integration_model.json";
    ASSERT_TRUE(model.save(path));
    DonnModel loaded = DonnModel::load(path);
    EXPECT_NEAR(evaluateAccuracy(loaded, test), acc, 1e-12);
    std::remove(path.c_str());
}

TEST(Integration, TrainingIsSeedDeterministic)
{
    ClassDataset train = makeSynthDigits(120, 7);
    auto run = [&]() -> std::vector<Real> {
        Rng rng(9);
        DonnModel model = ModelBuilder(miniSpec(), Laser{})
                              .diffractiveLayers(2, 1.0, &rng)
                              .detectorGrid(10, 3)
                              .build();
        TrainConfig tc;
        tc.epochs = 1;
        tc.lr = 0.05;
        tc.seed = 42;
        ClassificationTask task(model, train);
        Session(task, tc).fit();
        Field u = model.encode(train.images[0]);
        return model.inferLogitsInPlace(u,
                                        PropagationWorkspace::threadLocal());
    };
    std::vector<Real> a = run();
    std::vector<Real> b = run();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Integration, CodesignClosesTheDeploymentGap)
{
    // The Fig. 1 mechanism at miniature scale: out-of-box deployment of a
    // raw model onto a nasty device loses clearly more accuracy than the
    // codesign model deployed onto the same device.
    ClassDataset train = makeSynthDigits(300, 11);
    ClassDataset test = makeSynthDigits(150, 12);
    SystemSpec spec = miniSpec(32);
    SlmDevice device(8, 0.9 * kTwoPi, 2.0, 0.35);

    TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 0.03;

    Rng rng(13);
    DonnModel raw = ModelBuilder(spec, Laser{})
                        .diffractiveLayers(2, 1.0, &rng)
                        .detectorGrid(10, 3)
                        .build();
    ClassificationTask raw_task(raw, train);
    Session(raw_task, tc).fit();
    Real raw_sim = evaluateAccuracy(raw, test);

    Rng grng(15);
    DonnModel codesign = ModelBuilder(spec, Laser{})
                             .codesignLayers(2, device.lut(), 1.0, 1.0,
                                             &grng)
                             .detectorGrid(10, 3)
                             .build();
    for (std::size_t i = 0; i < 2; ++i)
        static_cast<CodesignLayer *>(codesign.layer(i))
            ->initFromPhase(
                static_cast<DiffractiveLayer *>(raw.layer(i))->phase());
    ClassificationTask cd_task(codesign, train);
    Session(cd_task, tc).fit();
    Real cd_sim = evaluateAccuracy(codesign, test);

    Rng hw_rng(17);
    DonnModel raw_hw = deployRaw(raw, device, FabricationVariation::none(),
                                 nullptr, CalibrationMode::OutOfBox);
    Real raw_hw_acc =
        evaluateDeployed(raw_hw, test, CmosDetector::ideal(), nullptr);
    DonnModel cd_hw =
        deployCodesign(codesign, FabricationVariation::none(), nullptr);
    Real cd_hw_acc =
        evaluateDeployed(cd_hw, test, CmosDetector::ideal(), nullptr);

    Real raw_drop = raw_sim - raw_hw_acc;
    Real cd_drop = cd_sim - cd_hw_acc;
    EXPECT_GT(raw_drop, cd_drop + 0.02)
        << "raw " << raw_sim << "->" << raw_hw_acc << ", codesign "
        << cd_sim << "->" << cd_hw_acc;
    // Codesign deployment with no fabrication error is numerically exact.
    EXPECT_NEAR(cd_drop, 0.0, 1e-9);
}

TEST(Integration, CodesignTauAnnealsAcrossFit)
{
    ClassDataset train = makeSynthDigits(60, 19);
    DeviceLut lut = DeviceLut::idealPhase(4);
    Rng rng(21);
    DonnModel model = ModelBuilder(miniSpec(16), Laser{})
                          .codesignLayers(1, lut, 1.0, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 0.05;
    tc.tau_start = 2.0;
    tc.tau_end = 0.5;
    ClassificationTask task(model, train);
    Session(task, tc).fit();
    auto *layer = dynamic_cast<CodesignLayer *>(model.layer(0));
    ASSERT_NE(layer, nullptr);
    EXPECT_NEAR(layer->tau(), 0.5, 1e-9); // ended at tau_end
}

TEST(Integration, SegmentationTrainingReducesLoss)
{
    CityConfig ccfg;
    ccfg.image_size = 32;
    SegDataset train = makeSynthCity(60, 1, ccfg);

    SystemSpec spec = miniSpec(32);
    Laser laser;
    Rng rng(23);
    DonnModel model(spec, laser);
    auto hop = model.hopPropagator();
    std::vector<LayerPtr> stack;
    for (int l = 0; l < 3; ++l)
        stack.push_back(
            std::make_unique<DiffractiveLayer>(hop, 1.0, &rng));
    model.addLayer(
        std::make_unique<OpticalSkipLayer>(hop, std::move(stack)));
    model.addLayer(std::make_unique<LayerNormLayer>());
    model.setDetector(DetectorPlane(DetectorPlane::gridLayout(32, 2, 2)));

    TrainConfig tc;
    tc.epochs = 4;
    tc.lr = 0.08;
    tc.batch = 8;
    SegmentationTask task(model, train);
    auto history = Session(task, tc).fit();
    EXPECT_LT(history.back().train_loss, history.front().train_loss);
    // Predicted masks are valid probability-ish maps.
    RealMap mask = task.predictMask(train.images[0]);
    EXPECT_GE(mask.min(), 0.0);
}

TEST(Integration, RgbTrainingBeatsChance)
{
    SceneConfig scfg;
    scfg.image_size = 32;
    RgbDataset train = makeSynthScenes(120, 1, scfg);
    RgbDataset test = makeSynthScenes(60, 2, scfg);

    SystemSpec spec = miniSpec(32);
    Rng rng(25);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(std::make_unique<DonnModel>(
            ModelBuilder(spec, Laser{})
                .diffractiveLayers(2, 1.0, &rng)
                .detectorGrid(train.num_classes, 4)
                .build()));
    MultiChannelDonn model(std::move(channels));

    TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 0.03;
    RgbTask task(model, train);
    Session(task, tc).fit();
    Real top1 = evaluateTopK(model, test, 1);
    EXPECT_GT(top1, 1.5 / train.num_classes); // beats chance with margin
    // top-k is monotone in k.
    EXPECT_GE(evaluateTopK(model, test, 3), top1);
    EXPECT_GE(evaluateTopK(model, test, 5),
              evaluateTopK(model, test, 3));
}

TEST(Integration, ToSystemBundleRoundTripsLevels)
{
    // Export a codesign model and check the CSV levels match the model's
    // own argmax decisions.
    SystemSpec spec = miniSpec(16);
    SlmDevice slm = SlmDevice::holoeyeLc2012(8);
    DonnModel model = ModelBuilder(spec, Laser{})
                          .codesignLayers(1, slm.lut())
                          .detectorGrid(10, 1)
                          .build();
    Rng lrng(27);
    for (ParamView p : model.params())
        for (Real &v : *p.value)
            v = lrng.uniform(-1, 1);

    const std::string dir = "/tmp/lr_integration_fab";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(toSystem(model, slm, dir));

    auto *layer = dynamic_cast<CodesignLayer *>(model.layer(0));
    std::vector<std::size_t> expected = layer->levelIndices();

    std::ifstream csv(dir + "/layer0.csv");
    ASSERT_TRUE(csv.good());
    std::vector<std::size_t> parsed;
    std::string line;
    while (std::getline(csv, line)) {
        std::size_t pos = 0;
        while (pos < line.size()) {
            std::size_t comma = line.find(',', pos);
            if (comma == std::string::npos)
                comma = line.size();
            parsed.push_back(std::stoul(line.substr(pos, comma - pos)));
            pos = comma + 1;
        }
    }
    EXPECT_EQ(parsed, expected);
    std::filesystem::remove_all(dir);
}

TEST(Integration, NoiseDegradationIsMonotoneOnAverage)
{
    ClassDataset train = makeSynthDigits(200, 31);
    ClassDataset test = makeSynthDigits(100, 32);
    Rng rng(33);
    DonnModel model = ModelBuilder(miniSpec(), Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 3)
                          .build();
    TrainConfig tc;
    tc.epochs = 2;
    tc.lr = 0.03;
    ClassificationTask task(model, train);
    Session(task, tc).fit();

    Rng n1(1), n2(1);
    Real clean = evaluateAccuracy(model, test);
    Real heavy = evaluateAccuracy(model, test, 2.0, &n2); // 200% noise
    EXPECT_LE(heavy, clean + 0.05);
}

} // namespace
} // namespace lightridge
