/**
 * @file
 * Out-of-core streaming dataset subsystem: bitwise shard round trips
 * (one ShardBuffer switching kinds included), streamed-vs-preloaded
 * training parity across worker counts (serial and replica loops), the
 * deterministic two-level shuffle, strict manifest/shard validation
 * errors naming the offending shard (wrong kind, out-of-range labels),
 * the mid-epoch dev-eval cadence, and — in LIGHTRIDGE_ALLOC_STATS
 * builds — zero-Field-allocation steady-state streamed train steps.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "data/shard.hpp"
#include "data/stream.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "optics/diffraction.hpp"

namespace lightridge {
namespace {

/** Self-cleaning scratch directory for packed datasets. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/lightridge_data_XXXXXX";
        char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "/tmp";
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string sub(const std::string &name) const
    {
        return path + "/" + name;
    }
};

SystemSpec
spec16()
{
    SystemSpec spec;
    spec.size = 16;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{16, 36e-6}, 532e-9);
    return spec;
}

DonnModel
classModel(uint64_t seed)
{
    Rng rng(seed);
    return ModelBuilder(spec16(), Laser{})
        .diffractiveLayers(2, 1.0, &rng)
        .detectorGrid(10, 1)
        .build();
}

/** Train a classification source and return the end-of-epoch losses. */
std::vector<Real>
lossHistory(ClassSource &source, const ClassDataset *test, TrainConfig cfg)
{
    DonnModel model = classModel(11);
    ClassificationTask task(model, source, test);
    Session session(task, cfg);
    std::vector<Real> losses;
    for (const EpochStats &stats : session.fit())
        if (!stats.mid_epoch)
            losses.push_back(stats.train_loss);
    return losses;
}

TrainConfig
smallConfig(std::size_t workers)
{
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 6;
    cfg.seed = 3;
    cfg.workers = workers;
    cfg.verbose = false;
    return cfg;
}

/** Element-exact RealMap comparison (the bitwise round-trip check). */
bool
bitwiseEqual(const RealMap &a, const RealMap &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

/** Expect `fn` to throw DataError whose message names `needle`. */
template <typename Fn>
void
expectDataError(Fn fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected DataError mentioning \"" << needle << "\"";
    } catch (const DataError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "DataError message \"" << e.what()
            << "\" does not name \"" << needle << "\"";
    }
}

/** Overwrite bytes at `offset` of a file in place. */
void
patchFile(const std::string &path, std::size_t offset, const void *bytes,
          std::size_t count)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char *>(bytes),
            static_cast<std::streamsize>(count));
    ASSERT_TRUE(f.good()) << path;
}

// --------------------------------------------------------------------------
// Shard format round trips
// --------------------------------------------------------------------------

TEST(ShardFormat, ClassRoundTripIsBitwise)
{
    TempDir dir;
    ClassDataset data = makeSynthDigits(25, 7);
    PackOptions options;
    options.shard_samples = 8; // 8+8+8+1: uneven tail shard
    DatasetManifest manifest = writeShards(data, dir.sub("d"), options);
    EXPECT_EQ(manifest.samples, 25u);
    EXPECT_EQ(manifest.shards.size(), 4u);
    EXPECT_EQ(manifest.shardSizes(),
              (std::vector<std::size_t>{8, 8, 8, 1}));

    DatasetManifest loaded = DatasetManifest::load(
        dir.sub("d") + "/manifest.json");
    EXPECT_EQ(loaded.num_classes, data.num_classes);
    ClassDataset back = materialize<ClassDataset>(loaded);
    ASSERT_EQ(back.size(), data.size());
    EXPECT_EQ(back.labels, data.labels);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_TRUE(bitwiseEqual(back.images[i], data.images[i]))
            << "sample " << i << " must round-trip bitwise";
}

TEST(ShardFormat, SegRoundTripIsBitwise)
{
    TempDir dir;
    SegDataset data = makeSynthCity(10, 5);
    PackOptions options;
    options.shard_samples = 4;
    writeShards(data, dir.sub("d"), options);
    SegDataset back = materialize<SegDataset>(
        DatasetManifest::load(dir.sub("d") + "/manifest.json"));
    ASSERT_EQ(back.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(back.images[i], data.images[i]));
        EXPECT_TRUE(bitwiseEqual(back.masks[i], data.masks[i]));
    }
}

TEST(ShardFormat, RgbRoundTripIsBitwise)
{
    TempDir dir;
    RgbDataset data = makeSynthScenes(9, 3);
    PackOptions options;
    options.shard_samples = 4;
    writeShards(data, dir.sub("d"), options);
    RgbDataset back = materialize<RgbDataset>(
        DatasetManifest::load(dir.sub("d") + "/manifest.json"));
    ASSERT_EQ(back.size(), data.size());
    EXPECT_EQ(back.labels, data.labels);
    EXPECT_EQ(back.num_classes, data.num_classes);
    for (std::size_t i = 0; i < data.size(); ++i)
        for (int c = 0; c < 3; ++c)
            EXPECT_TRUE(bitwiseEqual(back.images[i][c], data.images[i][c]));
}

TEST(ShardFormat, DecodeShardIntoReusesStorage)
{
    TempDir dir;
    ClassDataset data = makeSynthDigits(12, 2);
    PackOptions options;
    options.shard_samples = 6;
    DatasetManifest manifest = writeShards(data, dir.sub("d"), options);

    ShardBuffer buffer;
    decodeShardInto(manifest, 1, buffer);
    ASSERT_EQ(std::get<ClassDataset>(buffer).images.size(), 6u);
    EXPECT_EQ(std::get<ClassDataset>(buffer).labels[0], data.labels[6]);
    EXPECT_TRUE(bitwiseEqual(std::get<ClassDataset>(buffer).images[2],
                             data.images[8]));

    // A second decode into the warm buffer lands the other shard's data.
    decodeShardInto(manifest, 0, buffer);
    EXPECT_EQ(std::get<ClassDataset>(buffer).labels[0], data.labels[0]);
    EXPECT_TRUE(bitwiseEqual(std::get<ClassDataset>(buffer).images[5],
                             data.images[5]));
}

TEST(ShardFormat, ShardBufferSwitchesKindAndBack)
{
    TempDir dir;
    ClassDataset digits = makeSynthDigits(6, 2);
    SegDataset city = makeSynthCity(4, 5);
    PackOptions options;
    options.shard_samples = 3;
    DatasetManifest class_manifest =
        writeShards(digits, dir.sub("class"), options);
    DatasetManifest seg_manifest = writeShards(city, dir.sub("seg"));

    // One buffer takes a class shard, a seg shard, then the class shard
    // again, and holds the packed samples bitwise each time.
    ShardBuffer buffer;
    auto expectClassShard = [&] {
        decodeShardInto(class_manifest, 1, buffer);
        const ClassDataset &got = std::get<ClassDataset>(buffer);
        ASSERT_EQ(got.size(), 3u);
        EXPECT_EQ(got.num_classes, digits.num_classes);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(got.labels[i], digits.labels[3 + i]);
            EXPECT_TRUE(bitwiseEqual(got.images[i], digits.images[3 + i]));
        }
    };
    expectClassShard();
    decodeShardInto(seg_manifest, 0, buffer);
    const SegDataset &seg = std::get<SegDataset>(buffer);
    ASSERT_EQ(seg.size(), city.size());
    for (std::size_t i = 0; i < city.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(seg.images[i], city.images[i]));
        EXPECT_TRUE(bitwiseEqual(seg.masks[i], city.masks[i]));
    }
    expectClassShard();
}

// --------------------------------------------------------------------------
// Deterministic two-level shuffle
// --------------------------------------------------------------------------

TEST(TwoLevelShuffle, SingleShardMatchesFlatShuffle)
{
    for (uint64_t seed : {1u, 7u, 42u}) {
        Rng flat_rng(seed);
        std::vector<std::size_t> flat(20);
        std::iota(flat.begin(), flat.end(), std::size_t{0});
        std::shuffle(flat.begin(), flat.end(), flat_rng.engine());

        Rng rng(seed);
        EXPECT_EQ(twoLevelEpochOrder({20}, true, &rng), flat)
            << "single-shard order must equal the historical flat shuffle "
               "(seed " << seed << ")";
    }
}

TEST(TwoLevelShuffle, DeterministicAndShardMajor)
{
    const std::vector<std::size_t> sizes{8, 8, 4};
    Rng rng_a(9), rng_b(9), rng_c(10);
    std::vector<std::size_t> a = twoLevelEpochOrder(sizes, true, &rng_a);
    std::vector<std::size_t> b = twoLevelEpochOrder(sizes, true, &rng_b);
    std::vector<std::size_t> c = twoLevelEpochOrder(sizes, true, &rng_c);
    EXPECT_EQ(a, b) << "same seed must give the same order";
    EXPECT_NE(a, c) << "different seeds must give different orders";

    // A permutation of 0..n-1 ...
    std::vector<std::size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> iota(20);
    std::iota(iota.begin(), iota.end(), std::size_t{0});
    EXPECT_EQ(sorted, iota);

    // ... grouped shard-major: each shard occupies one contiguous span.
    auto shard_of = [](std::size_t i) {
        return i < 8 ? 0 : (i < 16 ? 1 : 2);
    };
    std::vector<int> seen_shards;
    for (std::size_t pos = 0; pos < a.size(); ++pos) {
        int s = shard_of(a[pos]);
        if (seen_shards.empty() || seen_shards.back() != s)
            seen_shards.push_back(s);
    }
    EXPECT_EQ(seen_shards.size(), sizes.size())
        << "each shard's samples must be contiguous in the epoch order";
}

TEST(TwoLevelShuffle, NoShuffleIsIdentity)
{
    Rng rng(4);
    std::vector<std::size_t> order = twoLevelEpochOrder({5, 3}, false, &rng);
    std::vector<std::size_t> iota(8);
    std::iota(iota.begin(), iota.end(), std::size_t{0});
    EXPECT_EQ(order, iota);
}

// --------------------------------------------------------------------------
// Streamed-vs-preloaded training parity
// --------------------------------------------------------------------------

TEST(StreamedTraining, MatchesPreloadedBitwiseAcrossSchedules)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(24, 7);
    PackOptions options;
    options.shard_samples = 8;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    ClassDataset preloaded = materialize<ClassDataset>(manifest);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        InMemoryClassSource memory(preloaded, manifest.shardSizes());
        ShardedClassSource streamed(manifest, 1);
        std::vector<Real> a =
            lossHistory(memory, nullptr, smallConfig(workers));
        std::vector<Real> b =
            lossHistory(streamed, nullptr, smallConfig(workers));
        EXPECT_EQ(a, b) << "streamed and preloaded training must be "
                           "bitwise identical (workers="
                        << workers << ")";
    }
}

TEST(StreamedTraining, SingleShardMatchesLegacyInMemoryTraining)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(18, 5);
    DatasetManifest manifest = writeShards(raw, dir.sub("train"));
    ASSERT_EQ(manifest.shards.size(), 1u);

    // Default flat layout (the engine's historical shuffle) ...
    InMemoryClassSource flat(raw);
    std::vector<Real> legacy =
        lossHistory(flat, nullptr, smallConfig(1));
    // ... equals the streamed single-shard run: shuffling a one-element
    // shard list draws nothing, so the rng stream is identical.
    ShardedClassSource streamed(manifest, 1);
    std::vector<Real> stream =
        lossHistory(streamed, nullptr, smallConfig(1));
    EXPECT_EQ(legacy, stream);
}

TEST(StreamedTraining, PrefetchDepthDoesNotChangeNumbers)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(24, 9);
    PackOptions options;
    options.shard_samples = 6;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    std::vector<std::vector<Real>> runs;
    for (std::size_t prefetch : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}}) {
        ShardedClassSource source(manifest, prefetch);
        runs.push_back(lossHistory(source, nullptr, smallConfig(2)));
        EXPECT_EQ(source.prefetchDepth(), prefetch);
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[1], runs[2]);
}

TEST(StreamedTraining, BytesReadCountsDecodedPayload)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(16, 3);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);
    std::uint64_t payload = 0;
    for (const ShardInfo &shard : manifest.shards)
        payload += shard.bytes;

    ShardedClassSource source(manifest, 1);
    EXPECT_EQ(source.bytesRead(), 0u);
    std::vector<Real> losses =
        lossHistory(source, nullptr, smallConfig(1));
    ASSERT_FALSE(losses.empty());
    // Every shard decodes at least once; the slot cache may save some
    // re-decodes across epochs, so the exact count is schedule-dependent.
    EXPECT_GE(source.bytesRead(), payload);
    EXPECT_EQ(source.bytesRead() % manifest.shards[0].bytes, 0u);
}

TEST(StreamedTraining, StageIndicesServesRandomAccess)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(20, 6);
    PackOptions options;
    options.shard_samples = 8;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    // The calibration-probe path: random access outside any epoch.
    ShardedClassSource source(manifest, 0);
    source.stageIndices(4, 12); // spans shards 0 and 1
    for (std::size_t i = 4; i < 12; ++i) {
        EXPECT_EQ(source.label(i), raw.labels[i]);
        EXPECT_TRUE(bitwiseEqual(source.image(i), raw.images[i]));
    }
}

// --------------------------------------------------------------------------
// Strict validation error paths
// --------------------------------------------------------------------------

TEST(ShardValidation, MissingShardNamesTheFile)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(12, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    std::filesystem::remove(manifest.shardPath(1));
    expectDataError([&] { verifyShardHeaders(manifest); },
                    "shard_00001.bin");
    expectDataError([&] { ShardedClassSource source(manifest, 1); },
                    "shard_00001.bin");
}

TEST(ShardValidation, ChecksumMismatchNamesTheShard)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(12, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    // Flip one payload byte past the 56-byte header: the header-only scan
    // stays happy, the checksummed decode must fail.
    const unsigned char garbage = 0xa5;
    patchFile(manifest.shardPath(2), 56 + 11, &garbage, 1);
    verifyShardHeaders(manifest);
    expectDataError([&] { validateManifest(manifest); }, "shard_00002.bin");
    expectDataError([&] { validateManifest(manifest); }, "checksum");
    ShardBuffer buffer;
    expectDataError([&] { decodeShardInto(manifest, 2, buffer); },
                    "shard_00002.bin");
}

TEST(ShardValidation, TruncatedShardNamesTheShard)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    std::filesystem::resize_file(manifest.shardPath(0), 56 + 40);
    expectDataError([&] { validateManifest(manifest); }, "shard_00000.bin");
}

TEST(ShardValidation, FutureFormatVersionIsRejected)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    DatasetManifest manifest = writeShards(raw, dir.sub("d"));
    // The version word sits right after the 8-byte magic.
    const std::uint32_t future = kShardVersion + 7;
    patchFile(manifest.shardPath(0), 8, &future, sizeof(future));
    expectDataError([&] { verifyShardHeaders(manifest); },
                    "shard_00000.bin");
    expectDataError([&] { verifyShardHeaders(manifest); }, "version");
}

TEST(ShardValidation, StreamPoisonsOnMidEpochCorruption)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(16, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);

    // Headers verify at construction; corrupt a payload afterwards so the
    // failure surfaces from the decode jobs during staging.
    ShardedClassSource source(manifest, 1);
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        const unsigned char garbage = 0x5a;
        patchFile(manifest.shardPath(s), 56 + 3, &garbage, 1);
    }
    std::vector<std::size_t> order(raw.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    source.beginEpoch(&order);
    expectDataError([&] { source.stageRange(0, 8); }, "checksum");
    source.endEpoch();
}

TEST(ShardValidation, KindMismatchNamesBothKinds)
{
    TempDir dir;
    DatasetManifest class_manifest =
        writeShards(makeSynthDigits(4, 1), dir.sub("class"));
    DatasetManifest seg_manifest =
        writeShards(makeSynthCity(4, 1), dir.sub("seg"));
    for (const char *kind : {"'class'", "'seg'"})
        expectDataError(
            [&] { ShardedSegSource source(class_manifest, 1); }, kind);
    for (const char *kind : {"'seg'", "'rgb'"})
        expectDataError([&] { materialize<RgbDataset>(seg_manifest); },
                        kind);
}

TEST(ShardValidation, OutOfRangeLabelsAreRejected)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    raw.labels[3] = 42;
    raw.labels[6] = -1;

    // The writer refuses before touching the disk.
    expectDataError([&] { writeShards(raw, dir.sub("d")); }, "sample 3");
    expectDataError([&] { writeShards(raw, dir.sub("d")); }, "label 42");
    EXPECT_FALSE(std::filesystem::exists(dir.sub("d")));

    // Shards packed under a wider class count, then served under a
    // 10-class manifest: every decode path names shard, sample and label.
    raw.num_classes = 43;
    raw.labels[6] = 5;
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    manifest.num_classes = 10;
    ShardBuffer buffer;
    for (const char *needle : {"shard_00000.bin", "sample 3", "label 42"}) {
        expectDataError([&] { decodeShardInto(manifest, 0, buffer); },
                        needle);
        expectDataError([&] { validateManifest(manifest); }, needle);
        expectDataError([&] { materialize<ClassDataset>(manifest); },
                        needle);
    }
    decodeShardInto(manifest, 1, buffer); // labels 0-9 only: decodes

    RgbDataset scenes = makeSynthScenes(3, 3);
    scenes.labels[2] = static_cast<int>(scenes.num_classes);
    expectDataError([&] { writeShards(scenes, dir.sub("rgb")); },
                    "sample 2");
}

TEST(ShardValidation, NonFinitePixelsAreRejected)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);

    // The writer refuses before touching the disk, images and masks alike.
    ClassDataset poisoned = raw;
    poisoned.images[3][5] = std::nan("");
    expectDataError([&] { writeShards(poisoned, dir.sub("d")); },
                    "sample 3");
    expectDataError([&] { writeShards(poisoned, dir.sub("d")); },
                    "non-finite");
    EXPECT_FALSE(std::filesystem::exists(dir.sub("d")));
    SegDataset city = makeSynthCity(3, 3);
    city.masks[2][0] = HUGE_VAL;
    expectDataError([&] { writeShards(city, dir.sub("seg")); }, "sample 2");

    // A packed shard rewritten with a NaN and a +inf pixel in sample 3,
    // both checksums updated to match: every decode path names the shard
    // and the sample.
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    const std::string path = manifest.shardPath(0);
    const std::size_t record =
        manifest.rows * manifest.cols * sizeof(Real) + sizeof(std::int32_t);
    const Real bad[2] = {std::nan(""), HUGE_VAL};
    patchFile(path, 56 + 3 * record + 5 * sizeof(Real), bad, sizeof(bad));
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    const std::uint64_t sum = fnv1a64(bytes.data() + 56, bytes.size() - 56);
    patchFile(path, 48, &sum, sizeof(sum)); // the header's checksum word
    manifest.shards[0].checksum = sum;

    ShardBuffer buffer;
    for (const char *needle : {"shard_00000.bin", "sample 3", "non-finite"}) {
        expectDataError([&] { decodeShardInto(manifest, 0, buffer); },
                        needle);
        expectDataError([&] { validateManifest(manifest); }, needle);
        expectDataError([&] { materialize<ClassDataset>(manifest); },
                        needle);
    }
    decodeShardInto(manifest, 1, buffer); // finite pixels only: decodes

    ShardedClassSource source(manifest, 1);
    std::vector<std::size_t> order(raw.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    source.beginEpoch(&order);
    expectDataError([&] { source.stageRange(0, 8); }, "sample 3");
    source.endEpoch();
}

TEST(ShardValidation, ManifestRejectsUnknownKeysAndWrongFormat)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    DatasetManifest manifest = writeShards(raw, dir.sub("d"));
    const std::string path = dir.sub("d") + "/manifest.json";

    Json j = manifest.toJson();
    j["surprise"] = Json(true);
    ASSERT_TRUE(j.save(path));
    expectDataError([&] { DatasetManifest::load(path); }, "surprise");

    Json wrong = manifest.toJson();
    wrong["format"] = Json(std::string("not-a-dataset"));
    ASSERT_TRUE(wrong.save(path));
    expectDataError([&] { DatasetManifest::load(path); },
                    "lightridge-dataset");
}

TEST(ShardValidation, ManifestRejectsNonIntegerCounts)
{
    // A negative, fractional or huge count must not reach a size_t cast
    // (-1 wraps, 28.5 truncates to a valid 28, 1e300 is undefined).
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    DatasetManifest manifest = writeShards(raw, dir.sub("d"));
    const std::string path = dir.sub("d") + "/manifest.json";
    ASSERT_TRUE(manifest.toJson().save(path));
    EXPECT_NO_THROW(DatasetManifest::load(path));

    for (double rows : {-1.0, 28.5, 1e300}) {
        Json j = manifest.toJson();
        j["image"]["rows"] = Json(rows);
        ASSERT_TRUE(j.save(path));
        expectDataError([&] { DatasetManifest::load(path); }, "image.rows");
    }
    const std::vector<std::pair<std::string, std::function<void(Json &)>>>
        edits = {
            {"version", [](Json &j) { j["version"] = Json(0.5); }},
            {"num_classes", [](Json &j) { j["num_classes"] = Json(-1); }},
            {"image.cols", [](Json &j) { j["image"]["cols"] = Json(0); }},
            {"samples", [](Json &j) { j["samples"] = Json(8.5); }},
            {"shards[0].samples",
             [](Json &j) { j["shards"].asArray()[0]["samples"] = Json(9); }},
            {"shards[0].bytes",
             [](Json &j) { j["shards"].asArray()[0]["bytes"] = Json(1e300); }},
        };
    for (const auto &[field, edit] : edits) {
        Json j = manifest.toJson();
        edit(j);
        ASSERT_TRUE(j.save(path));
        expectDataError([&] { DatasetManifest::load(path); }, field);
    }
}

// --------------------------------------------------------------------------
// Mid-epoch dev evaluation
// --------------------------------------------------------------------------

TEST(DevEval, OffByDefaultIsBitwiseNoOp)
{
    ClassDataset train = makeSynthDigits(24, 7);
    ClassDataset test = makeSynthDigits(8, 8);

    InMemoryClassSource source_a(train);
    TrainConfig base = smallConfig(1);
    std::vector<Real> plain = lossHistory(source_a, &test, base);

    InMemoryClassSource source_b(train);
    TrainConfig cadence = base;
    cadence.dev_eval_every_batches = 2;
    std::vector<Real> with_eval = lossHistory(source_b, &test, cadence);
    EXPECT_EQ(plain, with_eval)
        << "mid-epoch dev eval must not change the training numbers";
}

TEST(DevEval, SnapshotsInterleaveWithCadence)
{
    ClassDataset train = makeSynthDigits(24, 7);
    ClassDataset test = makeSynthDigits(8, 8);
    InMemoryClassSource source(train);

    DonnModel model = classModel(11);
    ClassificationTask task(model, source, &test);
    TrainConfig cfg = smallConfig(1);
    cfg.dev_eval_every_batches = 2;
    Session session(task, cfg);

    std::size_t callback_mid = 0;
    session.addCallback([&](const EpochStats &stats, Session &) {
        callback_mid += stats.mid_epoch ? 1 : 0;
        return true;
    });
    std::vector<EpochStats> history = session.fit();

    // 24 samples / batch 6 = 4 batches/epoch; cadence 2 fires after
    // batches 2 and 4 -> 2 snapshots per epoch, 2 epochs.
    std::size_t mid = 0, full = 0;
    int last_epoch = -1;
    for (const EpochStats &stats : history) {
        if (stats.mid_epoch) {
            ++mid;
            EXPECT_TRUE(stats.batch == 2 || stats.batch == 4);
            EXPECT_GE(stats.epoch, last_epoch)
                << "snapshots must precede their epoch's final entry";
        } else {
            ++full;
            last_epoch = stats.epoch;
        }
    }
    EXPECT_EQ(mid, 4u);
    EXPECT_EQ(full, 2u);
    EXPECT_EQ(callback_mid, 4u)
        << "mid-epoch snapshots must flow through the callback machinery";
}

TEST(DevEval, ParallelScheduleIsEvalInvariant)
{
    ClassDataset train = makeSynthDigits(24, 7);
    ClassDataset test = makeSynthDigits(8, 8);

    // The replica loop evaluates between batches, on the pool the
    // replicas train on; that must not change the numbers relative to
    // eval-off at the same worker count.
    TrainConfig cfg = smallConfig(2);
    InMemoryClassSource source_a(train);
    std::vector<Real> plain = lossHistory(source_a, &test, cfg);

    cfg.dev_eval_every_batches = 1;
    InMemoryClassSource source_b(train);
    std::vector<Real> with_eval = lossHistory(source_b, &test, cfg);
    EXPECT_EQ(plain, with_eval);
}

// --------------------------------------------------------------------------
// Zero-allocation steady state (LIGHTRIDGE_ALLOC_STATS builds only)
// --------------------------------------------------------------------------

TEST(AllocStats, SteadyStateStreamedStepAllocatesNoFields)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    TempDir dir;
    ClassDataset raw = makeSynthDigits(18, 3);
    PackOptions options;
    options.shard_samples = 6;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    DonnModel model = classModel(11);
    ShardedClassSource source(manifest, 1);
    ClassificationTask task(model, source); // no test set: pure train loop
    Session session(task, smallConfig(1));
    session.calibrate();

    // Warm epoch: sizes the slot ring, layer caches, and workspaces.
    session.trainEpoch();

    resetFieldAllocCount();
    session.trainEpoch();
    EXPECT_EQ(fieldAllocCount(), 0u)
        << "steady-state streamed train steps (decode included) must not "
           "allocate Fields";
}

} // namespace
} // namespace lightridge
