/**
 * @file
 * On-disk dataset format: binary sample shards + a JSON manifest.
 *
 * A packed dataset is a directory holding one `manifest.json` and N
 * binary shard files. Each shard carries a fixed header (magic, format
 * version, sample kind, image shape, sample count, payload size, FNV-1a
 * checksum) followed by the sample records; the manifest mirrors the
 * per-shard metadata so loaders can validate a corpus without touching
 * the payload bytes, per the checkpoint-header convention in
 * core/model.hpp. Pixels are stored as raw `Real` (8-byte IEEE double,
 * host/little endian) so a round trip is bitwise — the streamed-training
 * parity contract depends on it.
 *
 * The sample kind is a type: a decoded shard is a ClassDataset,
 * SegDataset or RgbDataset (ShardBuffer), and one record layout serves
 * all three. A record is the sample's image column (rows*cols doubles,
 * three planes of them for rgb) followed by its mask column (rows*cols
 * doubles, seg) or its label column (one int32 in [0, num_classes),
 * class and rgb).
 */
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/dataset.hpp"
#include "utils/json.hpp"

namespace lightridge {

/**
 * Error raised by shard/manifest readers and writers. Messages always
 * name the offending file so `lightridge_run`/`lightridge_data` can exit
 * 2 with an actionable diagnostic (the serve-manifest convention).
 */
class DataError : public std::runtime_error
{
  public:
    explicit DataError(const std::string &what) : std::runtime_error(what) {}
};

/** Shard file magic (8 bytes, NUL-padded) and current format version. */
inline constexpr char kShardMagic[8] = {'L', 'R', 'S', 'H',
                                        'A', 'R', 'D', '\0'};
inline constexpr std::uint32_t kShardVersion = 1;
inline constexpr const char *kManifestFormat = "lightridge-dataset";
inline constexpr int kManifestVersion = 1;

/** Sample kind stored in a shard (wire values are stable). */
enum class ShardKind : std::uint32_t { Class = 0, Seg = 1, Rgb = 2 };

/**
 * One decoded shard: the dataset of its kind, whose index among the
 * alternatives is the kind's wire value. Storage is reused across loads
 * of the same kind (decodeShardInto resizes, never reallocates once
 * warm), which is what keeps the prefetcher's steady state
 * allocation-free.
 */
using ShardBuffer = std::variant<ClassDataset, SegDataset, RgbDataset>;

/** The kind whose shards hold `Dataset` samples. */
template <typename Dataset, std::size_t I = 0>
constexpr ShardKind
shardKindOf()
{
    if constexpr (std::is_same_v<Dataset,
                                 std::variant_alternative_t<I, ShardBuffer>>)
        return static_cast<ShardKind>(I);
    else
        return shardKindOf<Dataset, I + 1>();
}

/** Stable name of a shard kind ("class" / "seg" / "rgb"). */
const char *shardKindName(ShardKind kind);

/** Parse a shard kind name; throws DataError on an unknown name. */
ShardKind shardKindFromName(const std::string &name);

/** FNV-1a 64-bit checksum (the shard payload digest). */
std::uint64_t fnv1a64(const void *data, std::size_t bytes);

/** Metadata of one shard file as recorded in the manifest. */
struct ShardInfo
{
    std::string file;           ///< path relative to the manifest
    std::size_t samples = 0;
    std::uint64_t bytes = 0;    ///< payload bytes (header excluded)
    std::uint64_t checksum = 0; ///< FNV-1a over the payload
};

/** Parsed dataset manifest (shard paths still relative). */
struct DatasetManifest
{
    ShardKind kind = ShardKind::Class;
    std::size_t num_classes = 0; ///< 0 for seg datasets
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t samples = 0;     ///< total across shards
    std::vector<ShardInfo> shards;

    /** Directory the manifest was loaded from ("" until loaded). */
    std::string dir;

    /** Absolute-ish path of shard s (dir-joined). */
    std::string shardPath(std::size_t s) const;

    /** Per-shard sample counts (the two-level shuffle layout). */
    std::vector<std::size_t> shardSizes() const;

    Json toJson() const;

    /**
     * Strict parse: unknown keys, a wrong format tag, or a future
     * version throw DataError naming `origin`.
     */
    static DatasetManifest fromJson(const Json &j, const std::string &origin);

    /** Load + parse `dir`-resolved manifest file. */
    static DatasetManifest load(const std::string &path);
};

/**
 * Read and decode one shard file into `out`, validating the header
 * against the manifest entry (shape, kind, sample count, payload bytes),
 * the payload checksum and every label's range. `out` switches to the
 * manifest's kind if it holds another; otherwise its storage is reused.
 * Allocates no Fields.
 * @throws DataError naming the shard on any mismatch or short read, and
 *         the shard, sample and label on a label outside [0, num_classes)
 */
void decodeShardInto(const DatasetManifest &manifest, std::size_t shard,
                     ShardBuffer &out);

/**
 * Validate every shard of a manifest by decoding it (headers, checksums
 * and label ranges) without retaining the decoded data.
 * @throws DataError naming the first offending shard
 */
void validateManifest(const DatasetManifest &manifest);

/**
 * Header-only pass over every shard: existence, magic, version, kind,
 * shape, sample count, and payload size are checked without reading the
 * payloads. The cheap startup validation streamed training runs before
 * touching the model; checksums are still verified on decode.
 * @throws DataError naming the first offending shard
 */
void verifyShardHeaders(const DatasetManifest &manifest);

/** Options for writeShards (shard count is derived from shard_samples). */
struct PackOptions
{
    std::size_t shard_samples = 0; ///< samples per shard; 0 = one shard
};

/**
 * Throw unless the manifest holds `kind` samples.
 * @throws DataError naming the manifest's directory and both kinds
 */
void checkManifestKind(const DatasetManifest &manifest, ShardKind kind);

/**
 * Pack a dataset (ClassDataset, SegDataset or RgbDataset) into `dir` as
 * shard files + manifest.json. Returns the written manifest (dir
 * resolved). Samples keep their order: global index i lands in shard
 * i / shard_samples at offset i % shard_samples. The manifest is written
 * last, so a failed pack leaves none.
 * @throws DataError on I/O failure, or before writing anything, naming
 *         the sample and the label, when a label falls outside
 *         [0, data.num_classes)
 */
template <typename Dataset>
DatasetManifest writeShards(const Dataset &data, const std::string &dir,
                            const PackOptions &options = {});

/**
 * Load an entire manifest of `Dataset` samples into memory, decoding
 * (and so validating) each shard straight into the result. The preload
 * path of sharded specs and the test-split loader.
 * @throws DataError as decodeShardInto, or from checkManifestKind
 */
template <typename Dataset>
Dataset materialize(const DatasetManifest &manifest);

} // namespace lightridge
