/**
 * @file
 * Table 1 reproduction: framework comparison for DONN compilation.
 *
 * Measures the pre-fabrication emulation runtime of a 5-layer DONN on the
 * LightRidge kernels vs the LightPipes-like baseline (same machine, same
 * physics), and prints the feature matrix the paper tabulates (optics
 * kernels, DSE support, LoC ratios - LoC ratios quoted from the paper's
 * measurement of a 5-layer DONN implementation effort).
 */
#include <cstdio>

#include "baseline/lightpipes_like.hpp"
#include "bench_common.hpp"
#include "core/model.hpp"
#include "data/synth_digits.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

int
main()
{
    bench::banner("Table 1: DONN framework comparison",
                  "paper Table 1: runtime days -> mins-hrs");

    const std::size_t n = scaled<std::size_t>(100, 200);
    const std::size_t depth = 5;
    const int reps = scaled(3, 5);
    const Real pitch = 36e-6, lambda = 532e-9;
    const Real z = idealDistanceHalfCone(Grid{n, pitch}, lambda);

    // Shared workload: one input, 5 random phase masks.
    Rng rng(3);
    RealMap input(n, n);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = rng.uniform(0, 1);
    std::vector<RealMap> phases;
    for (std::size_t l = 0; l < depth; ++l) {
        RealMap phase(n, n);
        for (std::size_t i = 0; i < phase.size(); ++i)
            phase[i] = rng.uniform(0, kTwoPi);
        phases.push_back(phase);
    }

    // LightRidge emulation (planned, cached, fused).
    SystemSpec spec;
    spec.size = n;
    spec.pixel = pitch;
    spec.distance = z;
    DonnModel model(spec, Laser{});
    for (std::size_t l = 0; l < depth; ++l) {
        auto layer =
            std::make_unique<DiffractiveLayer>(model.hopPropagator());
        layer->phase() = phases[l];
        model.addLayer(std::move(layer));
    }
    Field encoded = Field::fromAmplitude(input);
    model.inferField(encoded); // warm the plans
    WallTimer lr_timer;
    for (int r = 0; r < reps; ++r)
        model.inferField(encoded);
    double lr_ms = lr_timer.milliseconds() / reps;

    // LightPipes-like emulation (plan-less, uncached, unfused).
    WallTimer lp_timer;
    for (int r = 0; r < reps; ++r)
        baseline::lpDonnForward(input, phases, pitch, lambda, z);
    double lp_ms = lp_timer.milliseconds() / reps;

    std::printf("\n5-layer %zux%zu DONN emulation (one forward pass):\n", n,
                n);
    std::printf("%-28s %-8s %-5s %-9s %-10s %s\n", "framework",
                "optics", "DSE", "LoC(val)", "LoC(train)", "runtime/pass");
    std::printf("%-28s %-8s %-5s %-9s %-10s %.2f ms\n", "LightRidge (this)",
                "yes", "yes", "1x", "1x", lr_ms);
    std::printf("%-28s %-8s %-5s %-9s %-10s %.2f ms (%.1fx slower)\n",
                "LightPipes-like baseline", "yes", "no", "2x", "n/a", lp_ms,
                lp_ms / lr_ms);
    std::printf("%-28s %-8s %-5s %-9s %-10s %s\n",
                "customized PyTorch/TF*", "no", "no", "20x", "50x",
                "days (paper)");
    std::printf("* row quoted from the paper; not reproducible offline.\n");
    std::printf("\npaper shape: LightRidge mins-hrs vs LightPipes days "
                "(ratio >> 1). measured ratio: %.1fx\n", lp_ms / lr_ms);

    CsvWriter csv;
    csv.header({"framework", "runtime_ms_per_pass", "ratio"});
    csv.row({"lightridge", std::to_string(lr_ms), "1"});
    csv.row({"lightpipes_like", std::to_string(lp_ms),
             std::to_string(lp_ms / lr_ms)});
    bench::saveCsv(csv, "table1_frameworks");
    return 0;
}
