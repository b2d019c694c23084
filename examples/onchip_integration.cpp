/**
 * @file
 * Monolithic on-chip DONN integration case study (paper Section 5.5,
 * Figure 11): target a CMOS detector chip (CS165MU1-style, 3.45 um
 * pixels) and let LightRidge-DSE search the valid 3-D fabrication
 * dimensions (diffraction distance, resolution) for it; then train,
 * report emulated accuracy, and emit the nano-printing fabrication bundle
 * (mask thickness per layer + chip dimension summary).
 *
 * Run:  ./onchip_integration [--size=48] [--depth=3] [--epochs=2]
 */
#include <cstdio>

#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "dse/dse.hpp"
#include "hardware/to_system.hpp"
#include "utils/cli.hpp"

using namespace lightridge;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::size_t size = args.getInt("size", 48, 1);
    const std::size_t depth = args.getInt("depth", 3, 1);
    const int epochs = args.getInt("epochs", 2, 1);

    // Fixed by the chip: CMOS pixel pitch and laser wavelength.
    const Real pixel = 3.45e-6;
    Laser laser; // 532 nm

    std::printf("=== on-chip DONN integration case study ===\n");
    std::printf("CMOS pixel: %.2f um, wavelength: %.0f nm, resolution "
                "%zux%zu\n",
                pixel * 1e6, laser.wavelength * 1e9, size, size);

    // DSE over the remaining free parameter: the diffraction distance.
    // The half-cone rule gives the analytic proposal; quick emulations
    // around it confirm (the paper finds 532 um at 200x200 / 3.45 um).
    Grid grid{size, pixel};
    Real ideal = idealDistanceHalfCone(grid, laser.wavelength);
    std::printf("half-cone analytic distance: %.1f um\n", ideal * 1e6);

    QuickEvalConfig qe;
    qe.system_size = size;
    qe.depth = depth;
    qe.train_samples = 200;
    qe.test_samples = 100;
    qe.det_size = size / 10;
    Real best_acc = -1, best_dist = ideal;
    for (Real scale : {0.5, 1.0, 2.0}) {
        DesignPoint p{laser.wavelength, pixel, ideal * scale};
        Real acc = evaluateDesign(p, qe);
        std::printf("  distance %.1f um -> emulated acc %.3f\n",
                    p.distance * 1e6, acc);
        if (acc > best_acc) {
            best_acc = acc;
            best_dist = p.distance;
        }
    }

    // Train the integration model at the selected distance.
    SystemSpec spec;
    spec.size = size;
    spec.pixel = pixel;
    spec.distance = best_dist;
    Rng rng(5);
    DonnModel model = ModelBuilder(spec, laser)
                          .diffractiveLayers(depth, 1.0, &rng)
                          .detectorGrid(10, size / 10)
                          .build();
    ClassDataset train = makeSynthDigits(400, 1);
    ClassDataset test = makeSynthDigits(150, 2);
    TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = 0.03;
    ClassificationTask task(model, train);
    Session(task, tc).fit();
    std::printf("trained emulation accuracy: %.3f\n",
                evaluateAccuracy(model, test));

    // Fabrication dimensions (Fig. 11): flat dim = n * pixel; height =
    // depth+1 hops of optical clear adhesive at the chosen distance.
    Real flat = size * pixel * 1e6;
    Real height = (depth + 1) * best_dist * 1e6;
    std::printf("\nfabrication dimensions: %.0f um x %.0f um x %.0f um\n",
                flat, flat, height);

    // Nano-printing bundle: per-layer printed mask thickness arrays.
    ToSystemOptions opts;
    opts.target = DeployTarget::ThzMaskThickness; // thickness encoding
    opts.refractive_index = 1.7;
    if (toSystem(model, SlmDevice::idealPhaseOnly(256), "onchip_fab", opts))
        std::printf("wrote nano-printing bundle to onchip_fab/\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("onchip_integration", run, argc, argv);
}
