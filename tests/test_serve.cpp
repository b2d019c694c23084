/**
 * @file
 * Serving subsystem tests: checkpoint header contract, model registry
 * semantics (ref-counted unload/hot-swap), and the micro-batching
 * inference engine — concurrent multi-client requests against multiple
 * registered models must be deterministic and bitwise-equal to direct
 * single-model inference, and unload-while-busy must be safe (this
 * suite runs under the TSan CI leg).
 *
 * Serving API v2 coverage: typed ServeStatus failures, deadline expiry
 * (an expired request never reaches a batch slot),
 * priority-major batch formation, per-model admission quotas shedding
 * lowest-priority-youngest first, and metrics-counter consistency.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "data/synth_digits.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {
namespace {

DonnModel
tinyModel(std::size_t n, uint64_t seed)
{
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.02;
    Rng rng(seed);
    return ModelBuilder(spec, Laser{})
        .diffractiveLayers(2, 1.0, &rng)
        .detectorGrid(4, 3)
        .build();
}

std::vector<Real>
directLogits(const DonnModel &model, const RealMap &frame)
{
    Field u = model.inferField(model.encode(frame));
    return model.detector().readout(u);
}

std::vector<RealMap>
testFrames(std::size_t count)
{
    ClassDataset data = makeSynthDigits(count, 5);
    return data.images;
}

/** RAII temp file that is removed on scope exit. */
struct TempFile
{
    std::string path;
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
};

// ---------------------------------------------------------------------
// Checkpoint header
// ---------------------------------------------------------------------

TEST(Checkpoint, SaveWritesMagicAndVersion)
{
    TempFile file("ckpt_header_test.json");
    DonnModel model = tinyModel(16, 1);
    ASSERT_TRUE(model.save(file.path));

    Json j = Json::load(file.path);
    EXPECT_EQ(j.at("format").asString(), kCheckpointMagic);
    EXPECT_EQ(j.at("version").asInt(), kCheckpointVersion);

    DonnModel loaded = DonnModel::load(file.path);
    EXPECT_EQ(loaded.depth(), model.depth());
    EXPECT_EQ(directLogits(loaded, testFrames(1)[0]),
              directLogits(model, testFrames(1)[0]));
}

TEST(Checkpoint, LegacyHeaderlessFileStillLoads)
{
    TempFile file("ckpt_legacy_test.json");
    DonnModel model = tinyModel(16, 2);
    // A pre-header checkpoint is exactly toJson() saved raw.
    ASSERT_TRUE(model.toJson().save(file.path));
    DonnModel loaded = DonnModel::load(file.path);
    EXPECT_EQ(loaded.depth(), model.depth());
    EXPECT_EQ(directLogits(loaded, testFrames(1)[0]),
              directLogits(model, testFrames(1)[0]));
}

TEST(Checkpoint, TruncatedFileGivesClearError)
{
    TempFile file("ckpt_truncated_test.json");
    DonnModel model = tinyModel(16, 3);
    ASSERT_TRUE(model.save(file.path));
    // Truncate mid-document.
    std::string text;
    {
        std::ifstream in(file.path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    {
        std::ofstream out(file.path, std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    try {
        DonnModel::load(file.path);
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("checkpoint"),
                  std::string::npos);
    }
}

TEST(Checkpoint, WrongMagicAndFutureVersionRejected)
{
    TempFile file("ckpt_magic_test.json");
    Json j = tinyModel(16, 4).toJson();
    j["format"] = Json("not-a-lightridge-checkpoint");
    j["version"] = Json(1);
    ASSERT_TRUE(j.save(file.path));
    EXPECT_THROW(DonnModel::load(file.path), JsonError);

    j["format"] = Json(kCheckpointMagic);
    j["version"] = Json(kCheckpointVersion + 1);
    ASSERT_TRUE(j.save(file.path));
    EXPECT_THROW(DonnModel::load(file.path), JsonError);
}

TEST(Checkpoint, MissingFileGivesClearError)
{
    try {
        DonnModel::load("no_such_checkpoint_file.json");
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("no_such_checkpoint_file"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------

TEST(ModelRegistry, RegisterAcquireUnload)
{
    ModelRegistry registry;
    registry.registerModel("a", tinyModel(16, 1));
    registry.registerModel("b", tinyModel(20, 2));
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_TRUE(registry.has("a"));
    EXPECT_EQ(registry.names(), (std::vector<std::string>{"a", "b"}));

    std::shared_ptr<const DonnModel> a = registry.acquire("a");
    EXPECT_EQ(a->spec().size, 16u);
    EXPECT_EQ(registry.externalRefCount("a"), 1u);

    EXPECT_TRUE(registry.unload("a"));
    EXPECT_FALSE(registry.unload("a"));
    EXPECT_FALSE(registry.has("a"));
    EXPECT_THROW(registry.acquire("a"), UnknownModelError);

    // The acquired reference outlives the unload.
    EXPECT_EQ(a->spec().size, 16u);
    EXPECT_EQ(directLogits(*a, testFrames(1)[0]).size(), 4u);
}

TEST(ModelRegistry, HotSwapPublishesNewInstance)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    std::shared_ptr<const DonnModel> old_instance = registry.acquire("m");
    registry.registerModel("m", tinyModel(20, 2)); // hot-swap
    std::shared_ptr<const DonnModel> new_instance = registry.acquire("m");
    EXPECT_EQ(old_instance->spec().size, 16u);
    EXPECT_EQ(new_instance->spec().size, 20u);
}

TEST(ModelRegistry, CheckpointRoundTripServesIdentically)
{
    TempFile file("registry_ckpt_test.json");
    DonnModel model = tinyModel(16, 6);
    ASSERT_TRUE(model.save(file.path));
    ModelRegistry registry;
    registry.registerCheckpoint("m", file.path);
    RealMap frame = testFrames(1)[0];
    EXPECT_EQ(directLogits(*registry.acquire("m"), frame),
              directLogits(model, frame));
}

// ---------------------------------------------------------------------
// InferenceEngine
// ---------------------------------------------------------------------

TEST(InferenceEngine, MatchesDirectInferenceAcrossModels)
{
    ModelRegistry registry;
    registry.registerModel("small", tinyModel(16, 1));
    registry.registerModel("large", tinyModel(24, 2));
    std::shared_ptr<const DonnModel> small = registry.acquire("small");
    std::shared_ptr<const DonnModel> large = registry.acquire("large");

    const std::vector<RealMap> frames = testFrames(12);
    InferenceEngine engine(registry);

    for (int run = 0; run < 2; ++run) { // twice: deterministic
        std::vector<std::future<InferResponse>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            InferRequest request;
            request.model = i % 2 == 0 ? "small" : "large";
            request.image = frames[i];
            request.id = i;
            futures.push_back(engine.submit(std::move(request)));
        }
        for (std::size_t i = 0; i < frames.size(); ++i) {
            InferResponse response = futures[i].get();
            const DonnModel &model = i % 2 == 0 ? *small : *large;
            EXPECT_EQ(response.logits, directLogits(model, frames[i]))
                << "request " << i << " run " << run;
            EXPECT_EQ(response.id, i);
            EXPECT_GE(response.batch_size, 1u);
        }
    }

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, 2 * frames.size());
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GE(stats.meanBatch(), 1.0);
}

TEST(InferenceEngine, SequentialDispatchMatchesToo)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 3));
    std::shared_ptr<const DonnModel> model = registry.acquire("m");
    const std::vector<RealMap> frames = testFrames(6);

    InferenceEngine engine(registry);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        InferRequest request;
        request.model = "m";
        request.image = frames[i];
        InferResponse response = engine.inferNow(std::move(request));
        EXPECT_EQ(response.logits, directLogits(*model, frames[i]));
        EXPECT_EQ(response.batch_size, 1u);
    }
}

TEST(InferenceEngine, UnknownModelIsATypedStatus)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    InferenceEngine engine(registry);
    InferRequest request;
    request.model = "ghost";
    request.image = testFrames(1)[0];
    InferResponse response = engine.submit(std::move(request)).get();
    EXPECT_FALSE(response.ok());
    EXPECT_EQ(response.status, ServeStatus::UnknownModel);
    EXPECT_NE(response.error.find("ghost"), std::string::npos);
    EXPECT_TRUE(response.logits.empty());
    EXPECT_EQ(response.prediction, -1);
    EXPECT_EQ(engine.stats().failed, 1u);
    EXPECT_EQ(engine.metrics().statusCount(ServeStatus::UnknownModel),
              1u);
}

TEST(InferenceEngine, ExpiredOnArrivalNeverReachesABatch)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    InferenceEngine engine(registry);
    engine.pause(); // deterministic: both queued before any dispatch

    InferRequest doomed;
    doomed.model = "m";
    doomed.image = testFrames(1)[0];
    doomed.deadline = std::chrono::milliseconds(-1); // expired on arrival
    std::future<InferResponse> doomed_future =
        engine.submit(std::move(doomed));

    InferRequest healthy;
    healthy.model = "m";
    healthy.image = testFrames(1)[0];
    healthy.deadline = std::chrono::hours(1);
    std::future<InferResponse> healthy_future =
        engine.submit(std::move(healthy));

    engine.resume(); // sweep runs before batch formation
    const InferResponse expired = doomed_future.get();
    EXPECT_EQ(expired.status, ServeStatus::DeadlineExceeded);
    EXPECT_EQ(expired.batch_size, 0u); // never occupied a batch slot
    EXPECT_TRUE(expired.logits.empty());

    const InferResponse served = healthy_future.get();
    EXPECT_EQ(served.status, ServeStatus::Ok);
    EXPECT_EQ(served.batch_size, 1u); // the expired one was not in it

    engine.drain();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(
        engine.metrics().statusCount(ServeStatus::DeadlineExceeded), 1u);
}

TEST(InferenceEngine, PriorityShapesBatchFormation)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    BatchingConfig config;
    config.max_batch = 2;
    InferenceEngine engine(registry, config);
    engine.pause();

    // Queue order: BE, BE, Interactive. Priority-major formation makes
    // batch 1 = {Interactive, oldest BE} and batch 2 = {BE}; FIFO
    // formation would leave the Interactive request in a singleton.
    auto submit = [&](Priority priority) {
        InferRequest request;
        request.model = "m";
        request.image = testFrames(1)[0];
        request.priority = priority;
        return engine.submit(std::move(request));
    };
    std::future<InferResponse> be_old = submit(Priority::BestEffort);
    std::future<InferResponse> be_young = submit(Priority::BestEffort);
    std::future<InferResponse> urgent = submit(Priority::Interactive);
    engine.resume();

    EXPECT_EQ(urgent.get().batch_size, 2u);
    EXPECT_EQ(be_old.get().batch_size, 2u);
    EXPECT_EQ(be_young.get().batch_size, 1u);
}

TEST(InferenceEngine, AdmissionQuotaShedsLowestPriorityFirst)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    InferenceEngine engine(registry);
    engine.setModelQuota("m", 2);
    engine.pause();

    auto submit = [&](Priority priority) {
        InferRequest request;
        request.model = "m";
        request.image = testFrames(1)[0];
        request.priority = priority;
        return engine.submit(std::move(request));
    };
    std::future<InferResponse> be_old = submit(Priority::BestEffort);
    std::future<InferResponse> be_young = submit(Priority::BestEffort);

    // Quota full; an equal-priority newcomer is shed immediately...
    std::future<InferResponse> be_extra = submit(Priority::BestEffort);
    const InferResponse shed_newcomer = be_extra.get(); // resolves now
    EXPECT_EQ(shed_newcomer.status, ServeStatus::Overloaded);
    EXPECT_NE(shed_newcomer.error.find("quota"), std::string::npos);
    EXPECT_EQ(shed_newcomer.batch_size, 0u);

    // ...but an Interactive newcomer evicts the youngest BestEffort.
    std::future<InferResponse> urgent = submit(Priority::Interactive);
    const InferResponse evicted = be_young.get();
    EXPECT_EQ(evicted.status, ServeStatus::Overloaded);

    engine.resume();
    EXPECT_EQ(urgent.get().status, ServeStatus::Ok);
    EXPECT_EQ(be_old.get().status, ServeStatus::Ok);

    engine.drain();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(engine.metrics().statusCount(ServeStatus::Overloaded), 2u);
}

TEST(InferenceEngine, MetricsCountersStayConsistent)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    InferenceEngine engine(registry);

    std::vector<std::future<InferResponse>> futures;
    const std::vector<RealMap> frames = testFrames(8);
    for (const RealMap &frame : frames) {
        InferRequest request;
        request.model = "m";
        request.image = frame;
        futures.push_back(engine.submit(std::move(request)));
    }
    InferRequest ghost;
    ghost.model = "ghost";
    ghost.image = frames[0];
    futures.push_back(engine.submit(std::move(ghost)));
    for (auto &future : futures)
        future.get();
    engine.drain();

    const EngineStats stats = engine.stats();
    const ServeMetrics &metrics = engine.metrics();
    EXPECT_EQ(metrics.requestCount(), stats.requests);
    EXPECT_EQ(metrics.statusCount(ServeStatus::Ok),
              stats.requests - stats.failed);
    EXPECT_EQ(metrics.queueDepth(), 0);
    EXPECT_EQ(metrics.latency().count(), frames.size());
    EXPECT_GT(metrics.latency().percentileMs(0.99), 0.0);
    EXPECT_GE(metrics.latency().percentileMs(0.99),
              metrics.latency().percentileMs(0.50));
    EXPECT_EQ(metrics.batches().count(), stats.batches);

    const std::string page = engine.metrics().renderPrometheus("extra 1\n");
    EXPECT_NE(page.find("lightridge_requests_total{status=\"ok\"}"),
              std::string::npos);
    EXPECT_NE(page.find("lightridge_latency_ms_bucket"),
              std::string::npos);
    EXPECT_NE(page.find("extra 1"), std::string::npos);
}

TEST(InferenceEngine, ConcurrentClientsGetBitwiseResults)
{
    ModelRegistry registry;
    registry.registerModel("small", tinyModel(16, 1));
    registry.registerModel("large", tinyModel(24, 2));
    std::shared_ptr<const DonnModel> small = registry.acquire("small");
    std::shared_ptr<const DonnModel> large = registry.acquire("large");

    const std::vector<RealMap> frames = testFrames(8);
    std::vector<std::vector<Real>> expect_small, expect_large;
    for (const RealMap &frame : frames) {
        expect_small.push_back(directLogits(*small, frame));
        expect_large.push_back(directLogits(*large, frame));
    }

    InferenceEngine engine(registry);
    const std::size_t clients = 4;
    std::vector<int> mismatches(clients, 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t i = 0; i < frames.size(); ++i) {
                InferRequest request;
                request.model = (c + i) % 2 == 0 ? "small" : "large";
                request.image = frames[i];
                InferResponse response =
                    engine.inferNow(std::move(request));
                const auto &expected = (c + i) % 2 == 0
                                           ? expect_small[i]
                                           : expect_large[i];
                if (response.logits != expected)
                    ++mismatches[c];
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t c = 0; c < clients; ++c)
        EXPECT_EQ(mismatches[c], 0) << "client " << c;
    EXPECT_EQ(engine.stats().failed, 0u);
}

TEST(InferenceEngine, UnloadWhileBusyIsSafe)
{
    ModelRegistry registry;
    DonnModel original = tinyModel(16, 1);
    DonnModel replacement = original.clone(); // same weights: results
                                              // stay bitwise comparable
    registry.registerModel("m", std::move(original));
    std::shared_ptr<const DonnModel> reference = registry.acquire("m");

    const std::vector<RealMap> frames = testFrames(4);
    std::vector<std::vector<Real>> expected;
    for (const RealMap &frame : frames)
        expected.push_back(directLogits(*reference, frame));

    InferenceEngine engine(registry);
    std::atomic<int> wrong{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < 12; ++round) {
                const std::size_t i = (c + round) % frames.size();
                InferRequest request;
                request.model = "m";
                request.image = frames[i];
                InferResponse response =
                    engine.inferNow(std::move(request));
                if (response.status == ServeStatus::UnknownModel)
                    ++rejected; // raced an unload window: acceptable
                else if (response.logits != expected[i])
                    ++wrong;
            }
        });
    }

    // Hot-swap and briefly unload while clients hammer the engine.
    for (int round = 0; round < 6; ++round) {
        registry.registerModel("m", replacement.clone());
        std::this_thread::yield();
        registry.unload("m");
        registry.registerModel("m", replacement.clone());
    }
    for (std::thread &t : clients)
        t.join();

    // Every response that was produced matched bitwise; unload windows
    // may reject requests but never corrupt or crash.
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(engine.stats().failed,
              static_cast<std::uint64_t>(rejected.load()));
}

TEST(InferenceEngine, DrainWaitsForAllWork)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 2));
    InferenceEngine engine(registry);
    std::vector<std::future<InferResponse>> futures;
    const std::vector<RealMap> frames = testFrames(6);
    for (const RealMap &frame : frames) {
        InferRequest request;
        request.model = "m";
        request.image = frame;
        futures.push_back(engine.submit(std::move(request)));
    }
    engine.drain();
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, frames.size());
    for (auto &future : futures)
        EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
}

// ---------------------------------------------------------------------
// Ensemble mode
// ---------------------------------------------------------------------

/** Every non-Ok response obeys the documented InferResponse invariant:
 *  empty logits, prediction -1, non-empty error. */
void
expectFailureContract(const InferResponse &response)
{
    ASSERT_NE(response.status, ServeStatus::Ok);
    EXPECT_TRUE(response.logits.empty())
        << serveStatusName(response.status);
    EXPECT_EQ(response.prediction, -1)
        << serveStatusName(response.status);
    EXPECT_FALSE(response.error.empty())
        << serveStatusName(response.status);
}

TEST(Fusion, RulesAreDeterministicAndDocumented)
{
    const std::vector<std::vector<Real>> members = {
        {Real(1), Real(3), Real(2)},
        {Real(2), Real(0), Real(4)},
    };
    std::vector<Real> fused;

    // mean_logits: class-wise sum, then one scale by 1/N.
    fuseLogits(FusionRule::MeanLogits, members, fused);
    ASSERT_EQ(fused.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(fused[c],
                  (members[0][c] + members[1][c]) * (Real(1) / Real(2)));

    // mean_probs: a probability distribution (sums to ~1).
    fuseLogits(FusionRule::MeanProbs, members, fused);
    Real total = 0;
    for (Real p : fused) {
        EXPECT_GT(p, Real(0));
        total += p;
    }
    EXPECT_NEAR(static_cast<double>(total), 1.0, 1e-6);

    // vote: per-member argmax counts; ties break to the lowest class.
    fuseLogits(FusionRule::Vote, members, fused);
    EXPECT_EQ(fused, (std::vector<Real>{Real(0), Real(1), Real(1)}));
    const std::vector<std::vector<Real>> tied = {
        {Real(5), Real(5), Real(1)},
    };
    fuseLogits(FusionRule::Vote, tied, fused);
    EXPECT_EQ(fused, (std::vector<Real>{Real(1), Real(0), Real(0)}));

    EXPECT_THROW(fuseLogits(FusionRule::MeanLogits, {}, fused),
                 std::invalid_argument);
    const std::vector<std::vector<Real>> ragged = {
        {Real(1), Real(2)},
        {Real(1), Real(2), Real(3)},
    };
    EXPECT_THROW(fuseLogits(FusionRule::MeanLogits, ragged, fused),
                 std::invalid_argument);

    for (const FusionRule rule :
         {FusionRule::MeanLogits, FusionRule::MeanProbs, FusionRule::Vote})
        EXPECT_EQ(fusionRuleFromName(fusionRuleName(rule)), rule);
    EXPECT_THROW(fusionRuleFromName("median"), std::invalid_argument);
}

TEST(ModelRegistry, EnsembleDeclarationAndValidation)
{
    ModelRegistry registry;
    registry.registerModel("a", tinyModel(16, 1));
    registry.registerModel("b", tinyModel(16, 2));

    EnsembleSpec spec;
    spec.name = "duo";
    spec.members = {"a", "b"};
    registry.registerEnsemble(spec);

    EXPECT_TRUE(registry.isEnsemble("duo"));
    EXPECT_FALSE(registry.isEnsemble("a"));
    EXPECT_TRUE(registry.has("duo"));
    EXPECT_EQ(registry.size(), 3u);
    const std::vector<std::string> names = registry.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "duo"), names.end());

    // An ensemble name has no single instance to acquire.
    EXPECT_THROW(registry.acquire("duo"), UnknownModelError);

    ResolvedEnsemble resolved = registry.resolveEnsemble("duo");
    ASSERT_EQ(resolved.members.size(), 2u);
    EXPECT_EQ(resolved.spec.name, "duo");
    EXPECT_EQ(resolved.members[0], registry.acquire("a"));

    // Validation: empty members, self-reference, missing member,
    // nesting, model/ensemble name collisions (both directions).
    EnsembleSpec bad;
    bad.name = "empty";
    EXPECT_THROW(registry.registerEnsemble(bad), std::invalid_argument);
    bad.name = "selfish";
    bad.members = {"a", "selfish"};
    EXPECT_THROW(registry.registerEnsemble(bad), std::invalid_argument);
    bad.name = "ghostly";
    bad.members = {"a", "ghost"};
    EXPECT_THROW(registry.registerEnsemble(bad), std::invalid_argument);
    bad.name = "nested";
    bad.members = {"duo"};
    EXPECT_THROW(registry.registerEnsemble(bad), std::invalid_argument);
    bad.name = "a"; // collides with a registered model
    bad.members = {"b"};
    EXPECT_THROW(registry.registerEnsemble(bad), std::invalid_argument);
    EXPECT_THROW(registry.registerModel("duo", tinyModel(16, 3)),
                 std::invalid_argument);

    // Unloading a member keeps the ensemble declared but unresolvable.
    EXPECT_TRUE(registry.unload("a"));
    EXPECT_TRUE(registry.isEnsemble("duo"));
    EXPECT_THROW(registry.resolveEnsemble("duo"), UnknownModelError);
    registry.registerModel("a", tinyModel(16, 1));
    EXPECT_NO_THROW(registry.resolveEnsemble("duo"));

    EXPECT_TRUE(registry.unload("duo"));
    EXPECT_FALSE(registry.has("duo"));
    EXPECT_THROW(registry.resolveEnsemble("duo"), UnknownModelError);
}

TEST(InferenceEngine, EnsembleFusionMatchesOfflineFusion)
{
    ModelRegistry registry;
    registry.registerModel("m1", tinyModel(16, 11));
    registry.registerModel("m2", tinyModel(16, 12));
    registry.registerModel("m3", tinyModel(16, 13));
    const std::vector<std::shared_ptr<const DonnModel>> members = {
        registry.acquire("m1"), registry.acquire("m2"),
        registry.acquire("m3")};
    const std::vector<FusionRule> rules = {
        FusionRule::MeanLogits, FusionRule::MeanProbs, FusionRule::Vote};
    for (const FusionRule rule : rules) {
        EnsembleSpec spec;
        spec.name = std::string("ens_") + fusionRuleName(rule);
        spec.members = {"m1", "m2", "m3"};
        spec.fusion = rule;
        registry.registerEnsemble(spec);
    }

    InferenceEngine engine(registry);
    const std::vector<RealMap> frames = testFrames(6);
    for (const FusionRule rule : rules) {
        const std::string name =
            std::string("ens_") + fusionRuleName(rule);
        std::vector<std::future<InferResponse>> futures;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            InferRequest request;
            request.model = name;
            request.image = frames[i];
            request.id = i + 1;
            futures.push_back(engine.submit(std::move(request)));
        }
        for (std::size_t i = 0; i < frames.size(); ++i) {
            const InferResponse response = futures[i].get();
            ASSERT_EQ(response.status, ServeStatus::Ok)
                << fusionRuleName(rule) << ": " << response.error;
            EXPECT_EQ(response.id, i + 1);
            EXPECT_EQ(response.model, name);
            EXPECT_EQ(response.fan_out, 3u);
            EXPECT_GE(response.batch_size, 1u);

            // Bitwise parity: the engine's fused logits equal offline
            // fusion of the members' direct inference outputs.
            std::vector<std::vector<Real>> member_logits;
            for (const auto &member : members)
                member_logits.push_back(directLogits(*member, frames[i]));
            std::vector<Real> expected;
            fuseLogits(rule, member_logits, expected);
            EXPECT_EQ(response.logits, expected) << fusionRuleName(rule);
            EXPECT_EQ(response.prediction,
                      static_cast<int>(
                          std::max_element(expected.begin(),
                                           expected.end()) -
                          expected.begin()));
        }
    }
    engine.drain();

    const EngineStats stats = engine.stats();
    const std::size_t calls = rules.size() * frames.size();
    EXPECT_EQ(stats.ensembles, calls);
    EXPECT_EQ(stats.fan_out, calls * 3);
    // Each ensemble call = 3 member sub-requests + 1 fused response.
    EXPECT_EQ(stats.requests, calls * 4);
    EXPECT_EQ(stats.failed, 0u);
    const ServeMetrics &metrics = engine.metrics();
    EXPECT_EQ(metrics.requestCount(), stats.requests);
    EXPECT_EQ(metrics.ensembleCount(), stats.ensembles);
    EXPECT_EQ(metrics.ensembleFanOut(), stats.fan_out);
    EXPECT_NE(metrics.renderPrometheus().find(
                  "lightridge_ensemble_fan_out_total"),
              std::string::npos);
}

TEST(InferenceEngine, EnsembleMemberShedFailsTheFusedResponse)
{
    ModelRegistry registry;
    registry.registerModel("a", tinyModel(16, 1));
    registry.registerModel("b", tinyModel(16, 2));
    EnsembleSpec spec;
    spec.name = "duo";
    spec.members = {"a", "b"};
    registry.registerEnsemble(spec);

    InferenceEngine engine(registry);
    engine.setModelQuota("a", 1);
    engine.pause();

    // Fill member a's quota with a plain request, then fan out: the
    // ensemble's sub-request for a is shed (equal priority never
    // evicts), so the fused response fails Overloaded.
    InferRequest plain;
    plain.model = "a";
    plain.image = testFrames(1)[0];
    std::future<InferResponse> plain_future =
        engine.submit(std::move(plain));

    InferRequest fanout;
    fanout.model = "duo";
    fanout.image = testFrames(1)[0];
    std::future<InferResponse> fused_future =
        engine.submit(std::move(fanout));

    engine.resume();
    const InferResponse fused = fused_future.get();
    EXPECT_EQ(fused.status, ServeStatus::Overloaded);
    expectFailureContract(fused);
    EXPECT_NE(fused.error.find("\"a\""), std::string::npos)
        << fused.error;
    EXPECT_EQ(plain_future.get().status, ServeStatus::Ok);

    engine.drain();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.failed, 2u); // the shed member + the fused parent
    EXPECT_EQ(engine.metrics().requestCount(), stats.requests);
}

TEST(InferenceEngine, EnsembleDeadlineExpiryMapsToDeadlineExceeded)
{
    ModelRegistry registry;
    registry.registerModel("a", tinyModel(16, 1));
    registry.registerModel("b", tinyModel(16, 2));
    EnsembleSpec spec;
    spec.name = "duo";
    spec.members = {"a", "b"};
    registry.registerEnsemble(spec);

    InferenceEngine engine(registry);
    engine.pause(); // both members queued, then swept on resume

    InferRequest doomed;
    doomed.model = "duo";
    doomed.image = testFrames(1)[0];
    doomed.deadline = std::chrono::milliseconds(-1);
    std::future<InferResponse> future = engine.submit(std::move(doomed));

    engine.resume();
    const InferResponse response = future.get();
    EXPECT_EQ(response.status, ServeStatus::DeadlineExceeded);
    expectFailureContract(response);
    EXPECT_EQ(response.batch_size, 0u);

    engine.drain();
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, 2u); // both member sub-requests
    EXPECT_EQ(stats.failed, 3u);
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.batches, 0u); // nothing reached a batch slot
}

TEST(InferenceEngine, EnsembleAfterMemberUnloadIsUnknownModel)
{
    ModelRegistry registry;
    registry.registerModel("a", tinyModel(16, 1));
    registry.registerModel("b", tinyModel(16, 2));
    EnsembleSpec spec;
    spec.name = "duo";
    spec.members = {"a", "b"};
    registry.registerEnsemble(spec);
    registry.unload("b");

    InferenceEngine engine(registry);
    InferRequest request;
    request.model = "duo";
    request.image = testFrames(1)[0];
    const InferResponse response = engine.inferNow(std::move(request));
    EXPECT_EQ(response.status, ServeStatus::UnknownModel);
    expectFailureContract(response);
    EXPECT_NE(response.error.find("b"), std::string::npos);
}

TEST(InferenceEngine, UnloadMemberWhileEnsembleBusyIsSafe)
{
    ModelRegistry registry;
    DonnModel original = tinyModel(16, 1);
    DonnModel replacement = original.clone(); // same weights: fused
                                              // results stay comparable
    registry.registerModel("a", std::move(original));
    registry.registerModel("b", tinyModel(16, 2));
    EnsembleSpec spec;
    spec.name = "duo";
    spec.members = {"a", "b"};
    registry.registerEnsemble(spec);

    const std::vector<RealMap> frames = testFrames(4);
    std::vector<std::vector<Real>> expected;
    {
        std::shared_ptr<const DonnModel> a = registry.acquire("a");
        std::shared_ptr<const DonnModel> b = registry.acquire("b");
        for (const RealMap &frame : frames) {
            std::vector<Real> fused;
            fuseLogits(FusionRule::MeanLogits,
                       {directLogits(*a, frame), directLogits(*b, frame)},
                       fused);
            expected.push_back(std::move(fused));
        }
    }

    InferenceEngine engine(registry);
    std::atomic<int> wrong{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < 12; ++round) {
                const std::size_t i = (c + round) % frames.size();
                InferRequest request;
                request.model = "duo";
                request.image = frames[i];
                InferResponse response =
                    engine.inferNow(std::move(request));
                if (response.status == ServeStatus::UnknownModel) {
                    ++rejected; // raced an unload window: acceptable
                } else if (response.status != ServeStatus::Ok ||
                           response.logits != expected[i]) {
                    ++wrong;
                }
            }
        });
    }

    // Hot-swap and briefly unload a member while clients hammer the
    // ensemble. In-flight requests finish on their pinned instances.
    for (int round = 0; round < 6; ++round) {
        registry.registerModel("a", replacement.clone());
        std::this_thread::yield();
        registry.unload("a");
        registry.registerModel("a", replacement.clone());
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
    engine.drain();
}

TEST(InferenceEngine, RetryAfterSecondsStaysClamped)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    InferenceEngine engine(registry);
    EXPECT_EQ(engine.retryAfterSeconds(), 1); // idle engine: minimum

    InferRequest request;
    request.model = "m";
    request.image = testFrames(1)[0];
    engine.inferNow(std::move(request));
    const int after = engine.retryAfterSeconds();
    EXPECT_GE(after, 1);
    EXPECT_LE(after, 60);
}

TEST(BatchingConfig, FromJsonReadsCheckedIntegers)
{
    BatchingConfig config =
        BatchingConfig::fromJson(Json::parse(R"({"max_batch": 64})"));
    EXPECT_EQ(config.max_batch, 64u);
    EXPECT_EQ(config.max_queue, BatchingConfig{}.max_queue);
    config = BatchingConfig::fromJson(
        Json::parse(R"({"max_batch": 1, "max_queue": 2})"));
    EXPECT_EQ(config.max_batch, 1u);
    EXPECT_EQ(config.max_queue, 2u);

    // A negative, zero, fractional or huge value used to reach a
    // size_t cast: -1 wrapped, 2.5 truncated, 1e300 was undefined.
    auto expectNamed = [](const std::string &body, const std::string &field) {
        try {
            BatchingConfig::fromJson(Json::parse(body));
            FAIL() << "expected JsonError for " << body;
        } catch (const JsonError &e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    for (const std::string field : {"max_batch", "max_queue"})
        for (const char *value : {"-1", "0", "2.5", "1e300"})
            expectNamed("{\"" + field + "\": " + value + "}", field);
    expectNamed(R"({"max_batch": 4, "max_queued": 8})", "max_queued");
    EXPECT_THROW(BatchingConfig::fromJson(Json::parse("[64]")), JsonError);
}

TEST(InferenceEngine, NonOkResponsesKeepTheContract)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    InferenceEngine engine(registry);

    InferRequest ghost;
    ghost.model = "ghost";
    ghost.image = testFrames(1)[0];
    expectFailureContract(engine.inferNow(std::move(ghost)));

    InferRequest late;
    late.model = "m";
    late.image = testFrames(1)[0];
    late.deadline = std::chrono::milliseconds(-1);
    expectFailureContract(engine.inferNow(std::move(late)));

    engine.setModelQuota("m", 1);
    engine.pause();
    InferRequest fill;
    fill.model = "m";
    fill.image = testFrames(1)[0];
    std::future<InferResponse> queued = engine.submit(std::move(fill));
    InferRequest extra;
    extra.model = "m";
    extra.image = testFrames(1)[0];
    std::future<InferResponse> shed = engine.submit(std::move(extra));
    expectFailureContract(shed.get());
    engine.resume();
    EXPECT_EQ(queued.get().status, ServeStatus::Ok);
    engine.drain();
}

#if defined(LIGHTRIDGE_ALLOC_STATS)
TEST(InferenceEngine, SteadyStateEnsembleServingAllocatesNoFields)
{
    ModelRegistry registry;
    registry.registerModel("a", tinyModel(16, 1));
    registry.registerModel("b", tinyModel(16, 2));
    EnsembleSpec spec;
    spec.name = "duo";
    spec.members = {"a", "b"};
    registry.registerEnsemble(spec);
    // Every batch runs inline on the dispatcher thread, so the warm-up
    // burst warms the one workspace arena the measured burst leases from
    // (a pool worker's first lease would count as an allocation).
    ThreadPool inline_pool(1);
    InferenceEngine engine(registry, {}, &inline_pool);
    const std::vector<RealMap> frames = testFrames(6);

    auto burst = [&] {
        std::vector<std::future<InferResponse>> futures;
        for (const RealMap &frame : frames) {
            InferRequest request;
            request.model = "duo";
            request.image = frame;
            futures.push_back(engine.submit(std::move(request)));
        }
        for (auto &future : futures)
            ASSERT_EQ(future.get().status, ServeStatus::Ok);
    };

    burst(); // warm arenas, plans, modulation tables
    engine.drain();
    resetFieldAllocCount();
    burst(); // steady state: fan-out borrows the parent frame in place
    engine.drain();
    EXPECT_EQ(fieldAllocCount(), 0u);
}
#endif

#if defined(LIGHTRIDGE_ALLOC_STATS)
TEST(InferenceEngine, SteadyStateServingAllocatesNoFields)
{
    ModelRegistry registry;
    registry.registerModel("m", tinyModel(16, 1));
    ThreadPool inline_pool(1); // one warmed arena, as above
    InferenceEngine engine(registry, {}, &inline_pool);
    const std::vector<RealMap> frames = testFrames(6);

    auto burst = [&] {
        std::vector<std::future<InferResponse>> futures;
        for (const RealMap &frame : frames) {
            InferRequest request;
            request.model = "m";
            request.image = frame;
            futures.push_back(engine.submit(std::move(request)));
        }
        for (auto &future : futures)
            future.get();
    };

    burst(); // warm arenas, plans, modulation tables
    engine.drain();
    resetFieldAllocCount();
    burst(); // steady state: one shared instance, zero clones/buffers
    engine.drain();
    EXPECT_EQ(fieldAllocCount(), 0u);
}
#endif

} // namespace
} // namespace lightridge
