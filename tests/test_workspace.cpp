/**
 * @file
 * Propagation workspace engine: forwardInto/adjointInto must give the
 * same bits whether or not the output aliases the input, the arena must
 * reuse buffers across calls, and — in LIGHTRIDGE_ALLOC_STATS builds —
 * steady-state in-place propagation and full train steps must perform
 * zero Field allocations.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/diffractive_layer.hpp"
#include "core/layer_norm.hpp"
#include "core/multichannel.hpp"
#include "core/session.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "optics/diffraction.hpp"
#include "optics/workspace.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

Field
randomField(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

bool
bitwiseEqual(const Field &a, const Field &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
            return false;
    return true;
}

PropagatorConfig
makeConfig(Diffraction approx, std::size_t pad_factor, std::size_t n = 32)
{
    PropagatorConfig config;
    config.grid = Grid{n, 36e-6};
    config.wavelength = 532e-9;
    config.distance = 0.2;
    config.approx = approx;
    config.pad_factor = pad_factor;
    return config;
}

/** Every approximation/padding combination the propagator supports. */
std::vector<PropagatorConfig>
allConfigs()
{
    return {makeConfig(Diffraction::RayleighSommerfeld, 1),
            makeConfig(Diffraction::RayleighSommerfeld, 2),
            makeConfig(Diffraction::Fresnel, 2),
            makeConfig(Diffraction::Fraunhofer, 1)};
}

TEST(Workspace, InPlaceAliasingMatchesOutOfPlace)
{
    PropagationWorkspace workspace;
    for (const PropagatorConfig &config : allConfigs()) {
        Propagator prop(config);
        Field input = randomField(config.grid.n, 23);

        Field out;
        prop.forwardInto(input, out, workspace);
        Field aliased = input;
        prop.forwardInto(aliased, aliased, workspace);
        EXPECT_TRUE(bitwiseEqual(aliased, out))
            << diffractionName(config.approx) << " pad "
            << config.pad_factor;

        Field adj;
        prop.adjointInto(input, adj, workspace);
        Field adj_aliased = input;
        prop.adjointInto(adj_aliased, adj_aliased, workspace);
        EXPECT_TRUE(bitwiseEqual(adj_aliased, adj))
            << diffractionName(config.approx) << " pad "
            << config.pad_factor;
    }
}

TEST(Workspace, ArenaReusesBuffersAcrossCalls)
{
    PropagationWorkspace workspace;
    PropagatorConfig config = makeConfig(Diffraction::RayleighSommerfeld, 2);
    Propagator prop(config);
    Field input = randomField(config.grid.n, 5);
    Field out;

    prop.forwardInto(input, out, workspace);
    const std::size_t pooled = workspace.pooledCount();
    EXPECT_GE(pooled, 1u);
    EXPECT_EQ(workspace.leasedCount(), 0u);

    for (int i = 0; i < 5; ++i)
        prop.forwardInto(input, out, workspace);
    EXPECT_EQ(workspace.pooledCount(), pooled)
        << "steady-state calls must not grow the arena";
}

TEST(Workspace, NestedLeasesGetDistinctBuffers)
{
    PropagationWorkspace workspace;
    Field &a = workspace.acquire(8, 8);
    Field &b = workspace.acquire(8, 8);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(workspace.leasedCount(), 2u);
    workspace.release(a);
    Field &c = workspace.acquire(8, 8);
    EXPECT_EQ(&c, &a) << "released buffer should be reused";
    workspace.release(b);
    workspace.release(c);
    EXPECT_EQ(workspace.leasedCount(), 0u);
    EXPECT_EQ(workspace.pooledCount(), 2u);
}

TEST(Workspace, IdleBudgetTrimsLeastRecentlyUsedShapes)
{
    PropagationWorkspace workspace;
    // Budget of two 8x8 buffers (8*8 complex samples each).
    const std::size_t one = 8 * 8 * sizeof(Complex);
    workspace.setIdleByteBudget(2 * one);

    // Three concurrently leased buffers, then released oldest-first:
    // the third release overflows the budget and frees the LRU one.
    Field &a = workspace.acquire(8, 8);
    Field &b = workspace.acquire(8, 8);
    Field &c = workspace.acquire(8, 8);
    workspace.release(a);
    workspace.release(b);
    EXPECT_EQ(workspace.idleBytes(), 2 * one);
    EXPECT_EQ(workspace.pooledCount(), 3u);
    workspace.release(c);
    EXPECT_EQ(workspace.pooledCount(), 2u);
    EXPECT_LE(workspace.idleBytes(), 2 * one);

    // Leased buffers are never trimmed, whatever the budget.
    Field &keep = workspace.acquire(16, 16);
    workspace.setIdleByteBudget(0);
    EXPECT_EQ(workspace.leasedCount(), 1u);
    EXPECT_EQ(workspace.idleBytes(), 0u);
    workspace.release(keep); // budget 0: freed immediately
    EXPECT_EQ(workspace.pooledCount(), 0u);
}

TEST(Workspace, ReleasingForeignBufferThrows)
{
    PropagationWorkspace workspace;
    Field foreign(4, 4);
    EXPECT_THROW(workspace.release(foreign), std::logic_error);
}

TEST(WorkspaceModel, EncodeIntoMatchesEncode)
{
    SystemSpec spec;
    spec.size = 24;
    spec.pixel = 36e-6;
    spec.distance = 0.2;
    Laser laser;
    laser.profile = BeamProfile::Gaussian;
    DonnModel model(spec, laser);

    Rng rng(3);
    RealMap image(16, 16); // off-grid size: exercises the resize path
    for (std::size_t i = 0; i < image.size(); ++i)
        image[i] = rng.uniform(0, 1);

    Field by_value = model.encode(image);
    // Cached profile must match a from-scratch encode bit for bit.
    RealMap resized = resizeBilinear(image, 24, 24);
    Field reference = encodeInput(resized, laser, spec.grid());
    EXPECT_TRUE(bitwiseEqual(by_value, reference));

    Field into;
    model.encodeInto(image, into);
    EXPECT_TRUE(bitwiseEqual(into, by_value));
    model.encodeInto(image, into); // reuse, no reshape
    EXPECT_TRUE(bitwiseEqual(into, by_value));
}

// --------------------------------------------------------------------------
// Zero-allocation guarantees (LIGHTRIDGE_ALLOC_STATS builds only)
// --------------------------------------------------------------------------

TEST(AllocStats, SteadyStateForwardIntoAllocatesNothing)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    PropagationWorkspace workspace;
    for (const PropagatorConfig &config : allConfigs()) {
        Propagator prop(config);
        Field input = randomField(config.grid.n, 31);
        Field out;
        // Warm: sizes the output, the arena, and the FFT scratch.
        for (int i = 0; i < 3; ++i) {
            prop.forwardInto(input, out, workspace);
            prop.adjointInto(input, out, workspace);
        }
        resetFieldAllocCount();
        for (int i = 0; i < 10; ++i) {
            prop.forwardInto(input, out, workspace);
            prop.adjointInto(input, out, workspace);
        }
        EXPECT_EQ(fieldAllocCount(), 0u)
            << diffractionName(config.approx) << " pad "
            << config.pad_factor;
    }
}

TEST(AllocStats, ClassificationTrainStepAllocatesNothing)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    const std::size_t n = 16;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    Rng rng(5);
    DonnModel model = ModelBuilder(spec, Laser{})
                          .diffractiveLayers(3, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset train = makeSynthDigits(12, 1);
    ClassificationTask task(model, train);
    TrainConfig cfg;
    cfg.workers = 1;
    task.configure(cfg);

    Adam optimizer(cfg.lr);
    optimizer.attach(task.params());

    // Warm one full batch: sizes layer caches, detector cache, arena.
    task.zeroGrad();
    for (std::size_t i = 0; i < train.size(); ++i)
        task.trainSample(i);
    optimizer.step();
    task.zeroGrad();

    resetFieldAllocCount();
    for (std::size_t i = 0; i < train.size(); ++i)
        task.trainSample(i);
    optimizer.step();
    task.zeroGrad();
    EXPECT_EQ(fieldAllocCount(), 0u)
        << "steady-state train step must not allocate Field buffers";
}

TEST(AllocStats, RgbTrainStepAllocatesNothing)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    const std::size_t n = 16;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    Rng rng(5);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(std::make_unique<DonnModel>(
            ModelBuilder(spec, Laser{})
                .diffractiveLayers(2, 1.0, &rng)
                .detectorGrid(6, 1)
                .build()));
    MultiChannelDonn model(std::move(channels));

    SceneConfig scfg;
    scfg.image_size = n;
    RgbDataset train = makeSynthScenes(8, 1, scfg);
    RgbTask task(model, train);
    TrainConfig cfg;
    cfg.workers = 1;
    task.configure(cfg);

    task.zeroGrad();
    for (std::size_t i = 0; i < train.size(); ++i)
        task.trainSample(i);
    task.zeroGrad();

    resetFieldAllocCount();
    for (std::size_t i = 0; i < train.size(); ++i)
        task.trainSample(i);
    EXPECT_EQ(fieldAllocCount(), 0u);
}

TEST(AllocStats, SegmentationTrainStepAllocatesNothing)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    const std::size_t n = 16;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    Rng rng(5);
    DonnModel model(spec, Laser{});
    for (int l = 0; l < 2; ++l)
        model.addLayer(std::make_unique<DiffractiveLayer>(
            model.hopPropagator(), 1.0, &rng));
    model.addLayer(std::make_unique<LayerNormLayer>());
    model.setDetector(DetectorPlane(DetectorPlane::gridLayout(n, 2, 2)));

    CityConfig ccfg;
    ccfg.image_size = n;
    SegDataset train = makeSynthCity(8, 1, ccfg);
    SegmentationTask task(model, train);
    TrainConfig cfg;
    cfg.workers = 1;
    task.configure(cfg);

    task.zeroGrad();
    for (std::size_t i = 0; i < train.size(); ++i)
        task.trainSample(i);
    task.zeroGrad();

    resetFieldAllocCount();
    for (std::size_t i = 0; i < train.size(); ++i)
        task.trainSample(i);
    EXPECT_EQ(fieldAllocCount(), 0u);
}

} // namespace
} // namespace lightridge
