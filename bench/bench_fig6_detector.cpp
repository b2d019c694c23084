/**
 * @file
 * Figure 6 reproduction: detector patterns, simulation vs hardware.
 *
 * The paper's prototype (3-layer visible-range DONN, binarized MNIST,
 * SLM-deployed) shows the emulated detector pattern precisely matching
 * the experimentally measured one for each digit. Here: train a 3-layer
 * model on binarized digits, deploy it onto the simulated hardware stack
 * (SLM quantization + fabrication variation + CMOS capture), and report
 * per-digit simulation-to-"measurement" pattern correlation and
 * prediction agreement. Patterns are dumped as PGMs for inspection.
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "hardware/deploy.hpp"
#include "utils/image_io.hpp"

using namespace lightridge;

int
main()
{
    bench::banner("Figure 6: detector patterns sim vs hardware",
                  "paper Fig. 6: emulation matches measurements");

    const std::size_t size = scaled<std::size_t>(48, 200);
    const std::size_t depth = 3; // the paper prototype is 3-layer
    const int epochs = scaled(3, 20);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser; // 532 nm, matching the CPS532 source
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    DigitConfig dcfg;
    dcfg.binarize = true; // the prototype uses binarized inputs
    ClassDataset train = makeSynthDigits(scaled<std::size_t>(500, 2000), 1,
                                         dcfg);
    ClassDataset test = makeSynthDigits(scaled<std::size_t>(10, 10), 2,
                                        dcfg); // one per digit

    Rng rng(5);
    DonnModel model = ModelBuilder(spec, laser)
                          .diffractiveLayers(depth, 1.0, &rng)
                          .detectorGrid(10, size / 10)
                          .build();
    TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = 0.03;
    ClassificationTask task(model, train);
    Session(task, tc).fit();
    std::printf("emulated accuracy after training: %.3f\n",
                evaluateAccuracy(model, test));

    // Hardware: calibrated SLM deployment (the prototype measures its
    // SLM response, so nearest-level mapping is the faithful model).
    SlmDevice slm = SlmDevice::holoeyeLc2012(256);
    Rng hw_rng(7);
    DonnModel hw = deployRaw(model, slm, FabricationVariation::typical(),
                             &hw_rng, CalibrationMode::Calibrated);
    CmosDetector cmos = CmosDetector::cs165mu1();

    std::printf("\n%-7s %-14s %-12s %-12s %s\n", "digit", "correlation",
                "sim pred", "hw pred", "agree");
    CsvWriter csv;
    csv.header({"digit", "correlation", "sim_pred", "hw_pred"});
    Real mean_corr = 0;
    int agree = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        Field input = model.encode(test.images[i]);
        Field u_sim = model.inferField(input);
        RealMap sim_pattern = u_sim.intensity();
        RealMap hw_pattern =
            captureDetectorImage(hw, test.images[i], cmos, &hw_rng);

        Real corr = correlation(sim_pattern, hw_pattern);
        mean_corr += corr;

        std::vector<Real> sim_logits = model.detector().readout(u_sim);
        std::vector<Real> hw_logits =
            hw.detector().readoutFromIntensity(hw_pattern);
        int sim_pred = static_cast<int>(
            std::max_element(sim_logits.begin(), sim_logits.end()) -
            sim_logits.begin());
        int hw_pred = static_cast<int>(
            std::max_element(hw_logits.begin(), hw_logits.end()) -
            hw_logits.begin());
        agree += (sim_pred == hw_pred) ? 1 : 0;

        std::printf("%-7d %-14.3f %-12d %-12d %s\n", test.labels[i], corr,
                    sim_pred, hw_pred, sim_pred == hw_pred ? "yes" : "NO");
        csv.rowNumeric({static_cast<double>(test.labels[i]), corr,
                        static_cast<double>(sim_pred),
                        static_cast<double>(hw_pred)});

        // Qualitative dumps (simulation vs "experiment" per digit).
        std::string stem = bench::resultsDir() + "/fig6_digit" +
                           std::to_string(test.labels[i]);
        writePgm(stem + "_sim.pgm",
                 toGray(sim_pattern.raw(), size, size));
        writePgm(stem + "_hw.pgm", toGray(hw_pattern.raw(), size, size));
    }
    std::printf("\nmean pattern correlation: %.3f   prediction agreement: "
                "%d/%zu\n", mean_corr / test.size(), agree, test.size());
    std::printf("paper shape: simulation precisely matches measurement "
                "(visual match per digit).\n");
    bench::saveCsv(csv, "fig6_detector");
    return 0;
}
