/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *
 *  A1  numerical route: analytic angular-spectrum TF vs the paper's
 *      sampled impulse-response kernel (accuracy + runtime parity);
 *  A2  spectral-domain padding: same-size circular algorithm (paper) vs
 *      2x guard band (energy-lossy physics) on trained accuracy;
 *  A3  complex-valued regularization (calibration) on/off across depths
 *      (the core of the Fig. 7 claim, isolated);
 *  A4  codesign warm start: random logits vs raw-phase initialization;
 *  A5  device level count: deployment accuracy of the codesign flow as
 *      the SLM precision shrinks (256 -> 4 levels).
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "hardware/deploy.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

namespace {

Real
trainEval(SystemSpec spec, const ClassDataset &train,
          const ClassDataset &test, std::size_t depth, bool calibrate,
          double *seconds = nullptr)
{
    Rng rng(7);
    DonnModel model = ModelBuilder(spec, Laser{})
                          .diffractiveLayers(depth, 1.0, &rng)
                          .detectorGrid(10, spec.size / 10)
                          .build();
    TrainConfig tc;
    tc.epochs = scaled(2, 6);
    tc.lr = 0.03;
    tc.calibrate = calibrate;
    WallTimer timer;
    ClassificationTask task(model, train);
    Session(task, tc).fit();
    if (seconds != nullptr)
        *seconds = timer.seconds();
    return evaluateAccuracy(model, test);
}

} // namespace

int
main()
{
    bench::banner("Ablations: numerical route, padding, regularization, "
                  "warm start, device precision",
                  "design choices from DESIGN.md");

    const std::size_t size = scaled<std::size_t>(40, 100);
    ClassDataset train = makeSynthDigits(scaled<std::size_t>(400, 2000), 1);
    ClassDataset test = makeSynthDigits(scaled<std::size_t>(200, 800), 2);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    CsvWriter csv;
    csv.header({"ablation", "variant", "accuracy", "seconds"});

    // A1: TF vs IR numerical route.
    std::printf("\n[A1] numerical route (accuracy should match closely)\n");
    for (auto method : {PropagationMethod::TransferFunction,
                        PropagationMethod::ImpulseResponse}) {
        SystemSpec s = spec;
        s.method = method;
        double secs = 0;
        Real acc = trainEval(s, train, test, 3, true, &secs);
        const char *name = method == PropagationMethod::TransferFunction
                               ? "angular-spectrum TF"
                               : "sampled-kernel IR (paper Eq. 1)";
        std::printf("  %-34s acc %.3f  (%.1f s)\n", name, acc, secs);
        csv.row({"route", name, std::to_string(acc), std::to_string(secs)});
    }

    // A2: padding.
    std::printf("\n[A2] spectral padding\n");
    for (std::size_t pad : {std::size_t(1), std::size_t(2)}) {
        SystemSpec s = spec;
        s.pad_factor = pad;
        double secs = 0;
        Real acc = trainEval(s, train, test, 3, true, &secs);
        std::printf("  pad_factor=%zu %-22s acc %.3f  (%.1f s)\n", pad,
                    pad == 1 ? "(paper: circular)" : "(guard band)", acc,
                    secs);
        csv.row({"padding", std::to_string(pad), std::to_string(acc),
                 std::to_string(secs)});
    }

    // A3: regularization across depth.
    std::printf("\n[A3] complex-valued regularization (calibration)\n");
    for (std::size_t depth : {std::size_t(1), std::size_t(5)}) {
        for (bool calibrate : {true, false}) {
            Real acc = trainEval(spec, train, test, depth, calibrate);
            std::printf("  depth %zu, %-14s acc %.3f\n", depth,
                        calibrate ? "regularized" : "baseline", acc);
            csv.row({"regularization",
                     std::to_string(depth) +
                         (calibrate ? "_reg" : "_base"),
                     std::to_string(acc), "0"});
        }
    }

    // A4: codesign warm start.
    std::printf("\n[A4] codesign warm start\n");
    SlmDevice slm = SlmDevice::holoeyeLc2012(16);
    Rng raw_rng(9);
    DonnModel raw = ModelBuilder(spec, laser)
                        .diffractiveLayers(3, 1.0, &raw_rng)
                        .detectorGrid(10, size / 10)
                        .build();
    TrainConfig tc;
    tc.epochs = scaled(2, 6);
    tc.lr = 0.03;
    ClassificationTask raw_task(raw, train);
    Session(raw_task, tc).fit();
    for (bool warm : {false, true}) {
        Rng grng(11);
        DonnModel cd = ModelBuilder(spec, laser)
                           .codesignLayers(3, slm.lut(), 1.0, 1.0, &grng)
                           .detectorGrid(10, size / 10)
                           .build();
        if (warm)
            for (std::size_t i = 0; i < 3; ++i)
                static_cast<CodesignLayer *>(cd.layer(i))
                    ->initFromPhase(static_cast<DiffractiveLayer *>(
                                        raw.layer(i))
                                        ->phase());
        ClassificationTask cd_task(cd, train);
        Session(cd_task, tc).fit();
        Real acc = evaluateAccuracy(cd, test);
        std::printf("  %-24s acc %.3f\n",
                    warm ? "warm start (raw phases)" : "cold start", acc);
        csv.row({"warmstart", warm ? "warm" : "cold", std::to_string(acc),
                 "0"});
    }

    // A5: device precision sweep for the codesign flow.
    std::printf("\n[A5] device level count (codesign, deployed)\n");
    for (std::size_t levels : {std::size_t(256), std::size_t(16),
                               std::size_t(8), std::size_t(4)}) {
        SlmDevice device = SlmDevice::holoeyeLc2012(levels);
        Rng grng(13);
        DonnModel cd = ModelBuilder(spec, laser)
                           .codesignLayers(3, device.lut(), 1.0, 1.0, &grng)
                           .detectorGrid(10, size / 10)
                           .build();
        // Warm start (A4 shows cold-start codesign underperforms badly).
        for (std::size_t i = 0; i < 3; ++i)
            static_cast<CodesignLayer *>(cd.layer(i))
                ->initFromPhase(
                    static_cast<DiffractiveLayer *>(raw.layer(i))->phase());
        ClassificationTask cd_task(cd, train);
        Session(cd_task, tc).fit();
        DonnModel hw =
            deployCodesign(cd, FabricationVariation::none(), nullptr);
        Real acc =
            evaluateDeployed(hw, test, CmosDetector::ideal(), nullptr);
        std::printf("  %3zu levels: deployed acc %.3f\n", levels, acc);
        csv.row({"levels", std::to_string(levels), std::to_string(acc),
                 "0"});
    }

    bench::saveCsv(csv, "ablations");
    return 0;
}
