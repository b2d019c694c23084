/**
 * @file
 * Table 5 reproduction: multi-channel RGB-DONN scene classification.
 *
 * Paper: the 3-channel RGB-DONN (Fig. 12) reaches 0.52/0.73/0.84
 * top-1/3/5 on Places365 environment types vs 0.23/0.48/0.67 for the
 * [68]-trained baseline. Here: the same architecture pair on the
 * synthetic scene dataset - ours = multi-channel + regularized recipe,
 * baseline = same multi-channel architecture trained with the [68]
 * recipe (no calibration/regularization).
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "data/synth_scenes.hpp"

using namespace lightridge;

namespace {

MultiChannelDonn
buildRgb(const SystemSpec &spec, const Laser &laser, std::size_t depth,
         std::size_t classes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(std::make_unique<DonnModel>(
            ModelBuilder(spec, laser)
                .diffractiveLayers(depth, 1.0, &rng)
                .detectorGrid(classes, spec.size / 8)
                .build()));
    return MultiChannelDonn(std::move(channels));
}

} // namespace

int
main()
{
    bench::banner("Table 5: RGB-DONN top-1/3/5 classification",
                  "paper Table 5: 0.52/0.73/0.84 vs 0.23/0.48/0.67");

    const std::size_t size = scaled<std::size_t>(40, 200);
    const std::size_t depth = scaled<std::size_t>(3, 5);
    const int epochs = scaled(4, 20);
    const std::size_t n_train = scaled<std::size_t>(360, 3000);

    SceneConfig scfg;
    scfg.image_size = size;
    scfg.noise = 0.08; // harden the task: avoid a 1.0 ceiling
    RgbDataset train = makeSynthScenes(n_train, 1, scfg);
    RgbDataset test = makeSynthScenes(n_train / 3, 2, scfg);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    TrainConfig ours_cfg;
    ours_cfg.epochs = epochs;
    ours_cfg.lr = 0.03;

    TrainConfig base_cfg = ours_cfg;
    base_cfg.calibrate = false; // [68]-style training

    std::printf("training ours (regularized multi-channel)...\n");
    MultiChannelDonn ours = buildRgb(spec, laser, depth,
                                     train.num_classes, 3);
    RgbTask ours_task(ours, train);
    Session(ours_task, ours_cfg).fit();

    std::printf("training baseline ([68] recipe)...\n");
    MultiChannelDonn base = buildRgb(spec, laser, depth,
                                     train.num_classes, 3);
    RgbTask base_task(base, train);
    Session(base_task, base_cfg).fit();

    std::printf("\n%-24s %-8s %-8s %-8s\n", "model", "top-1", "top-3",
                "top-5");
    CsvWriter csv;
    csv.header({"model", "top1", "top3", "top5"});
    for (auto entry : {std::make_pair(&ours, "ours (Fig. 12)"),
                       std::make_pair(&base, "baseline [68]")}) {
        MultiChannelDonn *model = entry.first;
        const char *name = entry.second;
        Real t1 = evaluateTopK(*model, test, 1);
        Real t3 = evaluateTopK(*model, test, 3);
        Real t5 = evaluateTopK(*model, test, 5);
        std::printf("%-24s %-8.3f %-8.3f %-8.3f\n", name, t1, t3, t5);
        csv.row({name, std::to_string(t1), std::to_string(t3),
                 std::to_string(t5)});
    }
    std::printf("\npaper shape: ours > baseline at every k; largest gap "
                "at top-1.\n");
    bench::saveCsv(csv, "table5_rgb");
    return 0;
}
