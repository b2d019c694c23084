/**
 * @file
 * Multi-channel RGB-DONN classification (paper Section 5.6.1, Figure 12):
 * the RGB scene is split into R/G/B grayscale planes feeding three
 * parallel optical stacks whose outputs merge on one shared detector.
 * A grayscale single-stack baseline quantifies the multi-channel gain.
 *
 * Uses the Task/Session front end: RgbTask rides the same data-parallel
 * replica engine as classification (--workers=N).
 *
 * Run:  ./rgb_places [--size=40] [--depth=3] [--epochs=3] [--train=360]
 *                    [--workers=0]
 */
#include <cstdio>

#include "core/session.hpp"
#include "data/synth_scenes.hpp"
#include "utils/cli.hpp"

using namespace lightridge;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::size_t size = args.getInt("size", 40, 1);
    const std::size_t depth = args.getInt("depth", 3, 1);
    const int epochs = args.getInt("epochs", 3, 1);
    const std::size_t n_train = args.getInt("train", 360, 1);

    SceneConfig scfg;
    scfg.image_size = size;
    RgbDataset train = makeSynthScenes(n_train, 1, scfg);
    RgbDataset test = makeSynthScenes(n_train / 3, 2, scfg);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    // Three-channel RGB-DONN.
    Rng rng(3);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(std::make_unique<DonnModel>(
            ModelBuilder(spec, laser)
                .diffractiveLayers(depth, 1.0, &rng)
                .detectorGrid(train.num_classes, size / 8)
                .build()));
    MultiChannelDonn rgb(std::move(channels));

    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.lr = 0.03;
    cfg.verbose = true;
    cfg.workers = args.getInt("workers", 0, 0);
    RgbTask rgb_task(rgb, train, &test);
    Session(rgb_task, cfg).fit();

    std::printf("\n=== RGB-DONN (Table 5 style) ===\n");
    for (std::size_t k : {std::size_t(1), std::size_t(3)})
        std::printf("top-%zu accuracy: %.3f\n", k,
                    evaluateTopK(rgb, test, k));

    // Grayscale single-stack baseline for comparison.
    ClassDataset gray_train, gray_test;
    gray_train.num_classes = train.num_classes;
    gray_test.num_classes = test.num_classes;
    for (std::size_t i = 0; i < train.size(); ++i) {
        gray_train.images.push_back(toGrayscale(train.images[i]));
        gray_train.labels.push_back(train.labels[i]);
    }
    for (std::size_t i = 0; i < test.size(); ++i) {
        gray_test.images.push_back(toGrayscale(test.images[i]));
        gray_test.labels.push_back(test.labels[i]);
    }
    Rng grng(5);
    DonnModel gray = ModelBuilder(spec, laser)
                         .diffractiveLayers(depth, 1.0, &grng)
                         .detectorGrid(train.num_classes, size / 8)
                         .build();
    ClassificationTask gray_task(gray, gray_train);
    Session(gray_task, cfg).fit();
    std::printf("grayscale single-stack baseline top-1: %.3f\n",
                evaluateAccuracy(gray, gray_test));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("rgb_places", run, argc, argv);
}
