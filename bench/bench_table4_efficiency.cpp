/**
 * @file
 * Table 4 reproduction: energy efficiency (fps/Watt) and accuracy of the
 * DONN prototype vs conventional NNs.
 *
 * Locally measured: DONN emulated accuracy, MLP/CNN accuracy and
 * single-sample CPU inference fps (this machine). Quoted from the paper:
 * GPU/EdgeTPU fps/Watt reference rows (hardware unavailable offline).
 * DONN fps/Watt comes from the all-optical energy model: ~5 mW laser +
 * ~1 W CMOS @ 1000 fps => ~995 fps/Watt.
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_fashion.hpp"
#include "hardware/energy.hpp"
#include "nn/network.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

namespace {

/** Assumed CPU package power for local fps/Watt rows. */
constexpr double kCpuWatts = 65.0;

struct TaskResult
{
    Real donn_acc, mlp_acc, cnn_acc, mlp_fps, cnn_fps, donn_fps;
};

TaskResult
runTask(const ClassDataset &train, const ClassDataset &test,
        std::size_t donn_size, int epochs)
{
    TaskResult out{};

    // DONN.
    SystemSpec spec;
    spec.size = donn_size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);
    Rng rng(5);
    DonnModel donn = ModelBuilder(spec, laser)
                         .diffractiveLayers(5, 1.0, &rng)
                         .detectorGrid(10, donn_size / 10)
                         .build();
    TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = 0.03;
    ClassificationTask task(donn, train);
    Session(task, tc).fit();
    out.donn_acc = evaluateAccuracy(donn, test);
    {
        // Emulated DONN inference fps on this CPU (for context only; the
        // physical prototype runs at camera rate).
        WallTimer t;
        int reps = 16;
        for (int i = 0; i < reps; ++i)
            donn.detector().readout(
                donn.inferField(donn.encode(test.images[i % test.size()])));
        out.donn_fps = reps / t.seconds();
    }

    // MLP (paper: flattened input -> 128 -> 10).
    Rng mrng(7);
    nn::Network mlp = nn::makePaperMlp(
        train.images[0].rows() * train.images[0].cols(), 10, &mrng);
    nn::NnTrainConfig ncfg;
    ncfg.epochs = epochs;
    nn::NnTrainer mlp_trainer(mlp, ncfg);
    for (int e = 0; e < ncfg.epochs; ++e)
        mlp_trainer.trainEpoch(train);
    out.mlp_acc = mlp_trainer.evaluate(test);
    out.mlp_fps = mlp_trainer.measureFps(test);

    // CNN (paper: 2x Conv5x5 + MaxPool3 + 2 linear).
    Rng crng(9);
    nn::Network cnn = nn::makePaperCnn(train.images[0].rows(), 10, &crng);
    nn::NnTrainer cnn_trainer(cnn, ncfg);
    for (int e = 0; e < ncfg.epochs; ++e)
        cnn_trainer.trainEpoch(train);
    out.cnn_acc = cnn_trainer.evaluate(test);
    out.cnn_fps = cnn_trainer.measureFps(test);
    return out;
}

} // namespace

int
main()
{
    bench::banner("Table 4: fps/Watt and accuracy, DONN vs NNs",
                  "paper Table 4: DONN ~995 fps/W, ~1% accuracy gap");

    const std::size_t donn_size = scaled<std::size_t>(48, 200);
    const int epochs = scaled(3, 10);
    const std::size_t n_train = scaled<std::size_t>(600, 5000);
    const std::size_t n_test = scaled<std::size_t>(200, 1000);

    // Paper-scale NN baselines flatten the 200x200 system-resolution
    // input (MLP: 40000 -> 128 -> 10); quick mode keeps native 28x28.
    DigitConfig dcfg;
    dcfg.image_size = scaled<std::size_t>(28, 200);
    FashionConfig fcfg;
    fcfg.image_size = dcfg.image_size;
    ClassDataset mnist_train = makeSynthDigits(n_train, 1, dcfg);
    ClassDataset mnist_test = makeSynthDigits(n_test, 2, dcfg);
    ClassDataset fash_train = makeSynthFashion(n_train, 3, fcfg);
    ClassDataset fash_test = makeSynthFashion(n_test, 4, fcfg);

    std::printf("training DONN + MLP + CNN on synth-mnist...\n");
    TaskResult mnist = runTask(mnist_train, mnist_test, donn_size, epochs);
    std::printf("training DONN + MLP + CNN on synth-fmnist...\n");
    TaskResult fash = runTask(fash_train, fash_test, donn_size, epochs);

    DonnEnergyModel donn_energy;

    std::printf("\n%-30s %-12s %-10s %-10s\n", "platform", "fps/Watt",
                "MNIST", "FMNIST");
    std::printf("%-30s %-12.1f %-10.3f %-10.3f   <- all-optical model\n",
                "DONN prototype (optical)", donn_energy.fpsPerWatt(),
                mnist.donn_acc, fash.donn_acc);
    std::printf("%-30s %-12.2f %-10.3f %-10.3f   <- measured here\n",
                "CPU this machine (MLP)", mnist.mlp_fps / kCpuWatts,
                mnist.mlp_acc, fash.mlp_acc);
    std::printf("%-30s %-12.2f %-10.3f %-10.3f   <- measured here\n",
                "CPU this machine (CNN)", mnist.cnn_fps / kCpuWatts,
                mnist.cnn_acc, fash.cnn_acc);
    for (const PlatformPoint &p : paperDigitalReference())
        std::printf("%-30s %-12.1f %-10s %-10s   <- quoted from paper\n",
                    p.name.c_str(), p.fpsPerWatt(), "-", "-");

    Real best_nn_mnist = std::max(mnist.mlp_acc, mnist.cnn_acc);
    Real best_nn_fash = std::max(fash.mlp_acc, fash.cnn_acc);
    std::printf("\naccuracy gap (NN - DONN): MNIST %.3f, FMNIST %.3f "
                "(paper: ~0.01 / ~0.02)\n",
                best_nn_mnist - mnist.donn_acc,
                best_nn_fash - fash.donn_acc);
    std::printf("efficiency ratio DONN vs this CPU (MLP): %.0fx "
                "(paper: 2 orders vs desktop CPU/GPU)\n",
                donn_energy.fpsPerWatt() / (mnist.mlp_fps / kCpuWatts));

    CsvWriter csv;
    csv.header({"platform", "fps_per_watt", "mnist_acc", "fmnist_acc"});
    csv.row({"donn", std::to_string(donn_energy.fpsPerWatt()),
             std::to_string(mnist.donn_acc), std::to_string(fash.donn_acc)});
    csv.row({"cpu_mlp", std::to_string(mnist.mlp_fps / kCpuWatts),
             std::to_string(mnist.mlp_acc), std::to_string(fash.mlp_acc)});
    csv.row({"cpu_cnn", std::to_string(mnist.cnn_fps / kCpuWatts),
             std::to_string(mnist.cnn_acc), std::to_string(fash.cnn_acc)});
    bench::saveCsv(csv, "table4_efficiency");
    return 0;
}
