/**
 * @file
 * Quickstart: build, train, and evaluate a 5-layer DONN in ~30 lines of
 * API surface, mirroring the paper's Colab tutorial flow (Appendix A):
 *
 *   1. configure the optical system (wavelength, pixel size, distance),
 *   2. stack diffractive layers and a 10-class detector,
 *   3. train through the Task/Session engine (the complex-valued
 *      regularized recipe, data-parallel when workers allow),
 *   4. report accuracy and dump phase-mask visualizations.
 *
 * Run:  ./quickstart [--size=48] [--depth=5] [--epochs=3] [--train=600]
 *                    [--workers=0]
 */
#include <cstdio>

#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "hardware/to_system.hpp"
#include "utils/cli.hpp"

using namespace lightridge;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::size_t size = args.getInt("size", 48, 1);
    const std::size_t depth = args.getInt("depth", 5, 1);
    const int epochs = args.getInt("epochs", 3, 1);
    const std::size_t n_train = args.getInt("train", 600, 1);

    // 1. Optical system specification (the DSE parameters of Section 4).
    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;            // diffraction unit size
    Laser laser;                   // 532 nm plane-wave source
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);
    std::printf("system: %zux%zu, pixel %.1f um, distance %.3f m\n", size,
                size, spec.pixel * 1e6, spec.distance);

    // 2. Model: D diffractive layers + evenly spaced 10-class detector.
    Rng rng(7);
    DonnModel model = ModelBuilder(spec, laser)
                          .diffractiveLayers(depth, 1.0, &rng)
                          .detectorGrid(10, size / 10)
                          .build();

    // 3. Data + training through the unified Task/Session front end.
    ClassDataset train = makeSynthDigits(n_train, 1);
    ClassDataset test = makeSynthDigits(n_train / 3, 2);

    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.lr = 0.03;
    cfg.batch = 32;
    cfg.verbose = true;
    cfg.workers = args.getInt("workers", 0, 0);
    ClassificationTask task(model, train, &test);
    Session session(task, cfg);
    std::vector<EpochStats> history = session.fit();

    // 4. Results + visualization (lr.layers.view()). fit() already
    // evaluated the bound test set after the final epoch.
    if (history.empty()) {
        EvalResult untrained = evaluateWithConfidence(model, test);
        std::printf("untrained test accuracy: %.3f\n", untrained.accuracy);
    } else {
        std::printf("final test accuracy: %.3f  (top-3 %.3f)\n",
                    history.back().test_acc, history.back().test_top3);
    }
    for (std::size_t i = 0; i < model.depth(); ++i) {
        auto *layer = dynamic_cast<DiffractiveLayer *>(model.layer(i));
        if (layer == nullptr)
            continue;
        std::string path = "quickstart_phase" + std::to_string(i) + ".pgm";
        writePhaseView(layer->phase(), path);
        std::printf("wrote %s\n", path.c_str());
    }
    model.save("quickstart_model.json");
    std::printf("wrote quickstart_model.json\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("quickstart", run, argc, argv);
}
