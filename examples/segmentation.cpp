/**
 * @file
 * First all-optical image segmentation (paper Section 5.6.2, Figure 13):
 * a 5-layer DONN with an optical skip connection around the middle block
 * and a training-only LayerNorm before the detector plane, trained to map
 * street scenes to binary building masks. Compared against the [34]/[68]
 * baseline (no skip, no LayerNorm). Writes input/target/prediction PGMs.
 *
 * Uses the Task/Session front end: SegmentationTask rides the same
 * data-parallel replica engine as classification (--workers=N).
 *
 * Run:  ./segmentation [--size=48] [--epochs=4] [--train=200] [--workers=0]
 */
#include <cstdio>

#include "core/layer_norm.hpp"
#include "core/session.hpp"
#include "core/skip.hpp"
#include "data/synth_city.hpp"
#include "utils/cli.hpp"
#include "utils/image_io.hpp"

using namespace lightridge;

namespace {

/**
 * 5-layer segmentation DONN (Fig. 13a): the optical skip connection taps
 * the encoded input at a beam splitter and rejoins just before the
 * detector plane, bypassing the whole diffractive stack; LayerNorm is
 * training-only.
 */
DonnModel
buildSegModel(const SystemSpec &spec, const Laser &laser, bool with_skip,
              bool with_layernorm, Rng *rng)
{
    const std::size_t depth = 5;
    DonnModel model(spec, laser);
    auto hop = model.hopPropagator();
    std::vector<LayerPtr> stack;
    for (std::size_t l = 0; l < depth; ++l)
        stack.push_back(std::make_unique<DiffractiveLayer>(hop, 1.0, rng));
    if (with_skip) {
        model.addLayer(
            std::make_unique<OpticalSkipLayer>(hop, std::move(stack)));
    } else {
        for (auto &layer : stack)
            model.addLayer(std::move(layer));
    }
    if (with_layernorm)
        model.addLayer(std::make_unique<LayerNormLayer>());
    // Detector regions unused for image-to-image output, but configure a
    // placeholder so serialization stays uniform.
    model.setDetector(
        DetectorPlane(DetectorPlane::gridLayout(spec.size, 2, 2)));
    return model;
}

void
dumpMap(const RealMap &map, const std::string &path)
{
    writePgm(path, toGray(map.raw(), map.rows(), map.cols()));
}

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::size_t size = args.getInt("size", 48, 1);
    const int epochs = args.getInt("epochs", 4, 1);
    const std::size_t n_train = args.getInt("train", 200, 1);

    CityConfig ccfg;
    ccfg.image_size = size;
    SegDataset train = makeSynthCity(n_train, 1, ccfg);
    SegDataset test = makeSynthCity(n_train / 4, 2, ccfg);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.lr = 0.08;
    cfg.batch = 8;
    cfg.verbose = true;
    cfg.workers = args.getInt("workers", 0, 0);

    // Ours: optical skip + LayerNorm.
    Rng rng_a(3);
    DonnModel ours = buildSegModel(spec, laser, true, true, &rng_a);
    SegmentationTask ours_task(ours, train, &test);
    Session(ours_task, cfg).fit();

    // Baseline [34]/[68]: plain stack.
    Rng rng_b(3);
    DonnModel base = buildSegModel(spec, laser, false, false, &rng_b);
    TrainConfig base_cfg = cfg;
    base_cfg.calibrate = false; // baseline training recipe
    SegmentationTask base_task(base, train);
    Session(base_task, base_cfg).fit();

    std::printf("\n=== all-optical segmentation (Fig. 13 style) ===\n");
    std::printf("ours (skip+LN):  IoU %.3f  MSE %.4f\n",
                ours_task.evaluateIou(test), ours_task.evaluateMse(test));
    std::printf("baseline:        IoU %.3f  MSE %.4f\n",
                base_task.evaluateIou(test), base_task.evaluateMse(test));

    // Dump a few qualitative results.
    for (std::size_t i = 0; i < 3 && i < test.size(); ++i) {
        dumpMap(test.images[i], "seg_input" + std::to_string(i) + ".pgm");
        dumpMap(test.masks[i], "seg_target" + std::to_string(i) + ".pgm");
        dumpMap(ours_task.predictMask(test.images[i]),
                "seg_ours" + std::to_string(i) + ".pgm");
        dumpMap(base_task.predictMask(test.images[i]),
                "seg_baseline" + std::to_string(i) + ".pgm");
    }
    std::printf("wrote seg_*.pgm qualitative results\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("segmentation", run, argc, argv);
}
