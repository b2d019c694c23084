/**
 * @file
 * Figure 10 reproduction: large-DONN training runtime scaling.
 *
 * The paper trains up to 30-layer DONNs and reports per-epoch runtime vs
 * depth {5..30} and system size (up to 500^2 on one GPU, ~280 s/epoch at
 * 30 layers). Expected shape: runtime roughly linear in depth; superlinear
 * jump with system size. We measure seconds per epoch for a fixed batch
 * of training samples on this CPU.
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

int
main()
{
    bench::banner("Figure 10: training runtime scaling",
                  "paper Fig. 10: ~linear in depth, jump with size");

    std::vector<std::size_t> sizes =
        benchFullScale() ? std::vector<std::size_t>{100, 200, 300}
                         : std::vector<std::size_t>{32, 64};
    std::vector<std::size_t> depths =
        benchFullScale() ? std::vector<std::size_t>{5, 10, 20, 30}
                         : std::vector<std::size_t>{5, 10, 20, 30};
    const std::size_t samples_per_epoch = scaled<std::size_t>(32, 200);

    ClassDataset train = makeSynthDigits(samples_per_epoch, 1);

    CsvWriter csv;
    csv.header({"size", "depth", "seconds_per_epoch"});

    std::printf("\nseconds per epoch (%zu samples):\n", samples_per_epoch);
    std::printf("%-8s", "depth\\n");
    for (std::size_t n : sizes)
        std::printf(" %9zu", n);
    std::printf("\n");

    for (std::size_t depth : depths) {
        std::printf("%-8zu", depth);
        for (std::size_t n : sizes) {
            SystemSpec spec;
            spec.size = n;
            spec.pixel = 36e-6;
            Laser laser;
            spec.distance =
                idealDistanceHalfCone(spec.grid(), laser.wavelength);
            Rng rng(depth);
            DonnModel model = ModelBuilder(spec, laser)
                                  .diffractiveLayers(depth, 1.0, &rng)
                                  .detectorGrid(10, n / 10)
                                  .build();
            TrainConfig tc;
            tc.epochs = 1;
            tc.lr = 0.03;
            tc.calibrate = false; // measure the epoch only
            ClassificationTask task(model, train);
            Session session(task, tc);
            WallTimer timer;
            session.trainEpoch();
            double s = timer.seconds();
            std::printf(" %8.2fs", s);
            std::fflush(stdout);
            csv.rowNumeric({static_cast<double>(n),
                            static_cast<double>(depth), s});
        }
        std::printf("\n");
    }
    std::printf("\npaper shape: near-linear growth with depth at fixed "
                "size; disproportionate jump as size grows past the "
                "machine's cache/memory capacity.\n");
    bench::saveCsv(csv, "fig10_scaling");
    return 0;
}
