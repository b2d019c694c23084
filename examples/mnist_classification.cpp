/**
 * @file
 * End-to-end agile design flow (paper Figure 3) on the digit task:
 *
 *   1. LightRidge-DSE proposes (distance, unit size) for the target
 *      wavelength via the analytic half-cone rule + quick emulations;
 *   2. raw-model training (diffractlayer_raw, minutes-scale);
 *   3. codesign training against the SLM's measured response LUT
 *      (diffractlayer, Gumbel-softmax quantization-aware);
 *   4. out-of-box deployment comparison: raw-quantized vs codesign on
 *      the simulated hardware (device response + fabrication variation +
 *      CMOS noise), reproducing the Fig. 1 gap;
 *   5. fabrication dump via lr.model.to_system.
 *
 * Run:  ./mnist_classification [--size=40] [--depth=3] [--epochs=2]
 */
#include <cstdio>

#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "dse/dse.hpp"
#include "hardware/deploy.hpp"
#include "hardware/to_system.hpp"
#include "utils/cli.hpp"

using namespace lightridge;

namespace {

int
run(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::size_t size = args.getInt("size", 40, 1);
    const std::size_t depth = args.getInt("depth", 3, 1);
    const int epochs = args.getInt("epochs", 2, 1);

    // ---- Step 1: design space exploration -------------------------------
    Laser laser; // 532 nm
    DesignPoint design;
    design.wavelength = laser.wavelength;
    design.unit_size = 36e-6;
    design.distance =
        idealDistanceHalfCone(Grid{size, design.unit_size}, laser.wavelength);
    std::printf("[dse] half-cone ideal distance: %.4f m\n", design.distance);

    QuickEvalConfig qe;
    qe.system_size = size;
    qe.depth = 2;
    qe.train_samples = 150;
    qe.test_samples = 80;
    qe.det_size = size / 10;
    Real dse_acc = evaluateDesign(design, qe);
    std::printf("[dse] quick emulation at proposed point: acc %.3f\n",
                dse_acc);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = design.unit_size;
    spec.distance = design.distance;

    ClassDataset train = makeSynthDigits(500, 1);
    ClassDataset test = makeSynthDigits(200, 2);

    // ---- Step 2: raw training -------------------------------------------
    Rng rng(11);
    DonnModel raw = ModelBuilder(spec, laser)
                        .diffractiveLayers(depth, 1.0, &rng)
                        .detectorGrid(10, size / 10)
                        .build();
    TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = 0.03;
    tc.verbose = true;
    ClassificationTask raw_task(raw, train);
    Session(raw_task, tc).fit();
    Real raw_sim = evaluateAccuracy(raw, test);
    std::printf("[raw] simulation accuracy: %.3f\n", raw_sim);

    // ---- Step 3: codesign training against the device LUT ----------------
    SlmDevice slm = SlmDevice::holoeyeLc2012(16);
    Rng grng(13);
    DonnModel codesign = ModelBuilder(spec, laser)
                             .codesignLayers(depth, slm.lut(), 1.0, 1.0,
                                             &grng)
                             .detectorGrid(10, size / 10)
                             .build();
    // Warm start from the raw phases (Fig. 3 step 2: co-design update).
    for (std::size_t i = 0; i < depth; ++i)
        static_cast<CodesignLayer *>(codesign.layer(i))
            ->initFromPhase(
                static_cast<DiffractiveLayer *>(raw.layer(i))->phase());
    ClassificationTask cd_task(codesign, train);
    Session(cd_task, tc).fit();
    // Codesign inference uses exact argmax device states.
    Real codesign_sim = evaluateAccuracy(codesign, test);
    std::printf("[codesign] simulation accuracy: %.3f\n", codesign_sim);

    // ---- Step 4: out-of-box hardware deployment --------------------------
    FabricationVariation fab = FabricationVariation::typical();
    CmosDetector cmos = CmosDetector::cs165mu1();
    Rng hw_rng(17);
    DonnModel raw_oob =
        deployRaw(raw, slm, fab, &hw_rng, CalibrationMode::OutOfBox);
    Real raw_oob_acc = evaluateDeployed(raw_oob, test, cmos, &hw_rng);
    DonnModel raw_cal =
        deployRaw(raw, slm, fab, &hw_rng, CalibrationMode::Calibrated);
    Real raw_cal_acc = evaluateDeployed(raw_cal, test, cmos, &hw_rng);
    DonnModel cd_hw = deployCodesign(codesign, fab, &hw_rng);
    Real cd_hw_acc = evaluateDeployed(cd_hw, test, cmos, &hw_rng);

    std::printf("\n=== out-of-box deployment (Fig. 1 reproduction) ===\n");
    std::printf("raw out-of-box:       sim %.3f -> hw %.3f (drop %.1f%%)\n",
                raw_sim, raw_oob_acc, 100 * (raw_sim - raw_oob_acc));
    std::printf("raw + manual calib.:  sim %.3f -> hw %.3f (drop %.1f%%)\n",
                raw_sim, raw_cal_acc, 100 * (raw_sim - raw_cal_acc));
    std::printf("codesign out-of-box:  sim %.3f -> hw %.3f (drop %.1f%%)\n",
                codesign_sim, cd_hw_acc, 100 * (codesign_sim - cd_hw_acc));

    // ---- Step 5: fabrication dump ----------------------------------------
    if (toSystem(codesign, slm, "fab_out"))
        std::printf("wrote fabrication bundle to fab_out/\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("mnist_classification", run, argc, argv);
}
