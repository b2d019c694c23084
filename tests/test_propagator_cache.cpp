/**
 * @file
 * Regression tests for the propagation caching layer introduced with the
 * batched engine: the process-wide FFT plan cache, the transfer-function
 * cache, and the batched/threaded forward path. The contract under test is
 * strict: every cached path must be *bitwise-identical* to recomputing
 * from scratch, and the caches must actually be hit (and be faster) so a
 * refactor cannot silently fall back to the uncached path.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/diffractive_layer.hpp"
#include "core/layer_norm.hpp"
#include "core/model.hpp"
#include "fft/fft.hpp"
#include "optics/propagator.hpp"
#include "support/hop.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

namespace lightridge {
namespace {

PropagatorConfig
referenceConfig(std::size_t n = 64)
{
    PropagatorConfig config;
    config.grid = Grid{n, 36e-6};
    config.wavelength = 532e-9;
    config.distance = 0.25;
    return config;
}

Field
randomField(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

/** True only if every sample matches bit for bit. */
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

TEST(TransferFunctionCache, SecondPropagatorHitsCache)
{
    clearTransferFunctionCache();
    PropagatorConfig config = referenceConfig();

    Propagator first(config);
    TransferFunctionCacheStats after_first = transferFunctionCacheStats();
    EXPECT_EQ(after_first.entries, 1u);
    EXPECT_EQ(after_first.misses, 1u);

    Propagator second(config);
    TransferFunctionCacheStats after_second = transferFunctionCacheStats();
    EXPECT_EQ(after_second.entries, 1u);
    EXPECT_EQ(after_second.hits, after_first.hits + 1);

    // The shared kernel is one object, not merely an equal copy.
    EXPECT_EQ(&first.kernel(), &second.kernel());
}

TEST(TransferFunctionCache, CachedKernelBitwiseMatchesUncached)
{
    clearTransferFunctionCache();
    PropagatorConfig config = referenceConfig();
    Propagator cached(config);

    Field uncached = transferFunction(config.approx, config.method,
                                      config.grid, config.wavelength,
                                      config.distance);
    EXPECT_TRUE(bitwiseEqual(cached.kernel(), uncached));
}

TEST(TransferFunctionCache, CachedForwardBitwiseMatchesUncachedPath)
{
    PropagatorConfig config = referenceConfig();
    Field input = randomField(config.grid.n, 17);

    // Uncached reference: fresh caches, first propagator computes its
    // kernel from scratch.
    clearTransferFunctionCache();
    clearFftPlanCache();
    Field reference = hopForward(Propagator(config), input);

    // Cached path: a second propagator takes the kernel and plans from
    // the warm caches.
    Propagator warm(config);
    EXPECT_GT(transferFunctionCacheStats().hits, 0u);
    EXPECT_TRUE(bitwiseEqual(hopForward(warm, input), reference));
    EXPECT_TRUE(bitwiseEqual(hopAdjoint(warm, input),
                             hopAdjoint(Propagator(config), input)));
}

/**
 * Eviction follows true LRU order through the O(1) intrusive recency
 * list: touching an entry protects it, and overflow always drops the
 * least recently used key — observable through hit/miss deltas at a
 * small test capacity.
 */
TEST(TransferFunctionCache, EvictionFollowsLruOrder)
{
    clearTransferFunctionCache();
    std::size_t previous = setTransferFunctionCacheCapacity(3);

    auto config_at = [](Real distance) {
        PropagatorConfig config = referenceConfig(8);
        config.distance = distance;
        return config;
    };
    auto touch = [&](Real distance) {
        PropagatorConfig c = config_at(distance);
        acquireTransferFunction(c.approx, c.method, c.grid, c.wavelength,
                                c.distance);
    };
    auto misses = [] { return transferFunctionCacheStats().misses; };

    touch(0.10); // k0
    touch(0.11); // k1
    touch(0.12); // k2  -> cache [k2 k1 k0], 3 misses
    EXPECT_EQ(transferFunctionCacheStats().entries, 3u);
    EXPECT_EQ(misses(), 3u);

    touch(0.10); // hit: k0 becomes most recent -> [k0 k2 k1]
    EXPECT_EQ(misses(), 3u);
    EXPECT_EQ(transferFunctionCacheStats().hits, 1u);

    touch(0.13); // k3 evicts k1 (the LRU), not the just-touched k0
    EXPECT_EQ(transferFunctionCacheStats().entries, 3u);
    EXPECT_EQ(misses(), 4u);

    touch(0.10); // k0 still resident
    touch(0.12); // k2 still resident
    touch(0.13); // k3 still resident
    EXPECT_EQ(misses(), 4u);

    touch(0.11); // k1 was evicted -> miss (and k0, LRU by now, goes)
    EXPECT_EQ(misses(), 5u);
    EXPECT_EQ(transferFunctionCacheStats().entries, 3u);

    setTransferFunctionCacheCapacity(previous);
    clearTransferFunctionCache();
}

TEST(TransferFunctionCache, CapacityShrinkEvictsImmediately)
{
    clearTransferFunctionCache();
    std::size_t previous = setTransferFunctionCacheCapacity(4);
    for (int i = 0; i < 4; ++i) {
        PropagatorConfig config = referenceConfig(8);
        config.distance = 0.2 + 0.01 * i;
        acquireTransferFunction(config.approx, config.method, config.grid,
                                config.wavelength, config.distance);
    }
    EXPECT_EQ(transferFunctionCacheStats().entries, 4u);
    setTransferFunctionCacheCapacity(2);
    EXPECT_EQ(transferFunctionCacheStats().entries, 2u);
    EXPECT_THROW(setTransferFunctionCacheCapacity(0), std::invalid_argument);
    setTransferFunctionCacheCapacity(previous);
    clearTransferFunctionCache();
}

TEST(TransferFunctionCache, DistinctConfigsGetDistinctKernels)
{
    clearTransferFunctionCache();
    PropagatorConfig a = referenceConfig();
    PropagatorConfig b = referenceConfig();
    b.distance = 0.35;

    Propagator pa(a);
    Propagator pb(b);
    EXPECT_EQ(transferFunctionCacheStats().entries, 2u);
    EXPECT_FALSE(bitwiseEqual(pa.kernel(), pb.kernel()));
}

TEST(FftPlanCache, PlansAreSharedPerLength)
{
    clearFftPlanCache();
    auto a = acquireFftPlan(96);
    auto b = acquireFftPlan(96);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(fftPlanCacheSize(), 1u);

    auto c = acquireFftPlan(100);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(fftPlanCacheSize(), 2u);
}

TEST(FftPlanCache, SharedPlanTransformsIdenticallyToFresh)
{
    const std::size_t n = 60;
    clearFftPlanCache();
    FftPlan fresh(n);
    auto shared = acquireFftPlan(n);

    Rng rng(5);
    std::vector<Complex> x(n);
    for (auto &v : x)
        v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<Complex> via_fresh = x;
    std::vector<Complex> via_shared = x;
    fresh.forward(via_fresh.data());
    shared->forward(via_shared.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(via_fresh[i].real(), via_shared[i].real()) << "i=" << i;
        EXPECT_EQ(via_fresh[i].imag(), via_shared[i].imag()) << "i=" << i;
    }
}

/**
 * Micro-benchmark-backed regression: constructing a propagator from the
 * warm cache must be faster than computing the kernel from scratch. The
 * margin is enormous in practice (a hit is a map lookup, a miss is O(n^2)
 * transcendentals plus plan construction), so comparing medians of a few
 * repetitions is robust even on loaded CI machines.
 */
TEST(TransferFunctionCache, WarmConstructionFasterThanCold)
{
    PropagatorConfig config = referenceConfig(128);
    auto median_ms = [](std::vector<double> samples) {
        std::sort(samples.begin(), samples.end());
        return samples[samples.size() / 2];
    };

    std::vector<double> cold_ms;
    for (int r = 0; r < 3; ++r) {
        clearTransferFunctionCache();
        clearFftPlanCache();
        WallTimer timer;
        Propagator p(config);
        cold_ms.push_back(timer.milliseconds());
    }

    std::vector<double> warm_ms;
    Propagator keep_warm(config); // ensure the caches stay populated
    for (int r = 0; r < 3; ++r) {
        WallTimer timer;
        Propagator p(config);
        warm_ms.push_back(timer.milliseconds());
    }

    EXPECT_LT(median_ms(warm_ms), median_ms(cold_ms))
        << "cold=" << median_ms(cold_ms) << "ms warm=" << median_ms(warm_ms)
        << "ms";
}

TEST(BatchedForward, MatchesSerialInferenceBitwise)
{
    const std::size_t n = 48;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.2;
    Rng rng(9);
    DonnModel model(spec, Laser{});
    for (std::size_t l = 0; l < 3; ++l)
        model.addLayer(std::make_unique<DiffractiveLayer>(
            model.hopPropagator(), 1.0, &rng));

    std::vector<Field> inputs;
    for (std::size_t b = 0; b < 8; ++b)
        inputs.push_back(randomField(n, 100 + b));

    ThreadPool pool(4); // real threads even on single-core hosts
    std::vector<Field> batched = model.forwardFieldBatch(inputs, &pool);
    ASSERT_EQ(batched.size(), inputs.size());
    for (std::size_t b = 0; b < inputs.size(); ++b)
        EXPECT_TRUE(bitwiseEqual(batched[b], model.inferField(inputs[b])))
            << "sample " << b;

    // The default-pool overload must agree as well.
    std::vector<Field> global_pool = model.forwardFieldBatch(inputs);
    for (std::size_t b = 0; b < inputs.size(); ++b)
        EXPECT_TRUE(bitwiseEqual(global_pool[b], batched[b]))
            << "sample " << b;
}

TEST(BatchedForward, InferFieldMatchesForwardField)
{
    // forwardFieldInPlace / forwardLogitsInPlace with training = false
    // must be the inference path. The LayerNorm makes a slip visible:
    // its training forward normalizes, its inference is the identity.
    const std::size_t n = 32;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.15;
    Rng rng(21);
    DonnModel model(spec, Laser{});
    model.addLayer(std::make_unique<DiffractiveLayer>(model.hopPropagator(),
                                                      1.0, &rng));
    model.addLayer(std::make_unique<LayerNormLayer>());
    model.setDetector(DetectorPlane(DetectorPlane::gridLayout(n, 4, 4)));
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const Field input = randomField(n, 33);

    Field u = input;
    model.forwardFieldInPlace(u, false, workspace);
    EXPECT_TRUE(bitwiseEqual(u, model.inferField(input)));

    Field v = input;
    Field w = input;
    EXPECT_EQ(model.forwardLogitsInPlace(v, false, workspace),
              model.inferLogitsInPlace(w, workspace));
    EXPECT_TRUE(bitwiseEqual(v, w));
}

} // namespace
} // namespace lightridge
