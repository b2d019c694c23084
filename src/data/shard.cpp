#include "data/shard.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <type_traits>
#include <variant>

namespace lightridge {

namespace {

/** Planes stored per sample for a kind (class 1, seg 2, rgb 3). */
std::size_t
kindPlanes(ShardKind kind)
{
    switch (kind) {
    case ShardKind::Class:
        return 1;
    case ShardKind::Seg:
        return 2;
    default:
        return 3;
    }
}

/** Payload bytes of one sample record. */
std::uint64_t
sampleBytes(ShardKind kind, std::size_t rows, std::size_t cols)
{
    std::uint64_t bytes = static_cast<std::uint64_t>(kindPlanes(kind)) *
                          rows * cols * sizeof(Real);
    if (kind != ShardKind::Seg)
        bytes += sizeof(std::int32_t); // the label
    return bytes;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::uint64_t
parseHex64(const std::string &text, const std::string &origin)
{
    if (text.empty() || text.size() > 16)
        throw DataError(origin + ": bad checksum string \"" + text + "\"");
    std::uint64_t value = 0;
    for (char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            value |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            throw DataError(origin + ": bad checksum string \"" + text +
                            "\"");
    }
    return value;
}

void
expectManifestKeys(const Json &j,
                   std::initializer_list<const char *> allowed,
                   const std::string &origin, const std::string &where)
{
    for (const auto &entry : j.asObject()) {
        bool known = false;
        for (const char *key : allowed)
            known = known || entry.first == key;
        if (!known)
            throw DataError(origin + ": unknown key in " + where + ": " +
                            entry.first);
    }
}

/** RAII stdio file handle. */
struct File
{
    std::FILE *fp = nullptr;

    File(const std::string &path, const char *mode)
        : fp(std::fopen(path.c_str(), mode))
    {}
    ~File()
    {
        if (fp != nullptr)
            std::fclose(fp);
    }
    File(const File &) = delete;
    File &operator=(const File &) = delete;
};

void
writeExact(std::FILE *fp, const void *data, std::size_t bytes,
           const std::string &path)
{
    if (bytes > 0 && std::fwrite(data, 1, bytes, fp) != bytes)
        throw DataError("shard " + path + ": write failed");
}

void
readExact(std::FILE *fp, void *data, std::size_t bytes,
          const std::string &path, const char *what)
{
    if (bytes > 0 && std::fread(data, 1, bytes, fp) != bytes)
        throw DataError("shard " + path + ": truncated " + what);
}

/** Fixed shard header, serialized field by field (no struct padding). */
struct ShardHeader
{
    char magic[8];
    std::uint32_t version = kShardVersion;
    std::uint32_t kind = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t planes = 0;
    std::uint32_t reserved = 0;
    std::uint64_t samples = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t checksum = 0;
};

void
writeHeader(std::FILE *fp, const ShardHeader &h, const std::string &path)
{
    writeExact(fp, h.magic, sizeof(h.magic), path);
    writeExact(fp, &h.version, sizeof(h.version), path);
    writeExact(fp, &h.kind, sizeof(h.kind), path);
    writeExact(fp, &h.rows, sizeof(h.rows), path);
    writeExact(fp, &h.cols, sizeof(h.cols), path);
    writeExact(fp, &h.planes, sizeof(h.planes), path);
    writeExact(fp, &h.reserved, sizeof(h.reserved), path);
    writeExact(fp, &h.samples, sizeof(h.samples), path);
    writeExact(fp, &h.payload_bytes, sizeof(h.payload_bytes), path);
    writeExact(fp, &h.checksum, sizeof(h.checksum), path);
}

ShardHeader
readHeader(std::FILE *fp, const std::string &path)
{
    ShardHeader h;
    readExact(fp, h.magic, sizeof(h.magic), path, "header");
    readExact(fp, &h.version, sizeof(h.version), path, "header");
    readExact(fp, &h.kind, sizeof(h.kind), path, "header");
    readExact(fp, &h.rows, sizeof(h.rows), path, "header");
    readExact(fp, &h.cols, sizeof(h.cols), path, "header");
    readExact(fp, &h.planes, sizeof(h.planes), path, "header");
    readExact(fp, &h.reserved, sizeof(h.reserved), path, "header");
    readExact(fp, &h.samples, sizeof(h.samples), path, "header");
    readExact(fp, &h.payload_bytes, sizeof(h.payload_bytes), path, "header");
    readExact(fp, &h.checksum, sizeof(h.checksum), path, "header");
    return h;
}

/** Append one plane's pixels to the payload buffer. */
void
appendPlane(std::vector<unsigned char> &payload, const RealMap &plane)
{
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(plane.data());
    payload.insert(payload.end(), bytes,
                   bytes + plane.size() * sizeof(Real));
}

void
appendLabel(std::vector<unsigned char> &payload, int label)
{
    std::int32_t value = static_cast<std::int32_t>(label);
    const auto *bytes = reinterpret_cast<const unsigned char *>(&value);
    payload.insert(payload.end(), bytes, bytes + sizeof(value));
}

// ---- the record layout, stated once for every sample kind ---------------

/** True for the kinds whose samples carry a label (class, rgb). */
template <typename Dataset>
constexpr bool kLabeled =
    !std::is_same_v<std::remove_const_t<Dataset>, SegDataset>;

/** True when a record field is a pixel plane (else it is a label). */
template <typename T>
constexpr bool kIsPlane = std::is_same_v<std::remove_cvref_t<T>, RealMap>;

/** The column stored after the image: labels, or a seg dataset's masks. */
template <typename Dataset>
auto &
tailColumn(Dataset &data)
{
    if constexpr (kLabeled<Dataset>)
        return data.labels;
    else
        return data.masks;
}

/**
 * Apply `fn` to the fields of sample i in record order: the image
 * column's planes (one, or three for rgb), then the tail column's entry.
 */
template <typename Dataset, typename Fn>
void
forEachField(Dataset &data, std::size_t i, const Fn &fn)
{
    auto &image = data.images[i];
    if constexpr (kIsPlane<decltype(image)>)
        fn(image);
    else
        for (auto &plane : image)
            fn(plane);
    fn(tailColumn(data)[i]);
}

/** Size `data`'s columns to n samples and take the manifest's classes. */
template <typename Dataset>
void
shapeColumns(Dataset &data, const DatasetManifest &manifest, std::size_t n)
{
    data.images.resize(n);
    tailColumn(data).resize(n);
    if constexpr (kLabeled<Dataset>)
        data.num_classes = manifest.num_classes;
}

/**
 * Throw DataError naming where(), the sample and the label unless the
 * label lies in [0, num_classes).
 */
template <typename Where>
void
checkLabel(int label, std::size_t num_classes, std::size_t sample,
           const Where &where)
{
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes)
        throw DataError(where() + ": sample " + std::to_string(sample) +
                        " has label " + std::to_string(label) +
                        ", outside [0, " + std::to_string(num_classes) +
                        ")");
}

/**
 * Throw DataError naming where() and the sample unless every value of
 * the plane (an image channel or a mask) is finite.
 */
template <typename Where>
void
checkPlane(const RealMap &plane, std::size_t sample, const Where &where)
{
    for (std::size_t p = 0; p < plane.size(); ++p)
        if (!std::isfinite(plane[p]))
            throw DataError(where() + ": sample " + std::to_string(sample) +
                            " has a non-finite pixel (" +
                            std::to_string(plane[p]) + ")");
}

/** Read + validate one shard's header against its manifest entry. */
ShardHeader
readVerifiedHeader(const DatasetManifest &manifest, std::size_t shard,
                   std::FILE *fp, const std::string &path)
{
    const ShardInfo &info = manifest.shards[shard];
    ShardHeader h = readHeader(fp, path);
    if (std::memcmp(h.magic, kShardMagic, sizeof(h.magic)) != 0)
        throw DataError("shard " + path + ": bad magic (not a lightridge "
                        "shard file)");
    if (h.version > kShardVersion)
        throw DataError("shard " + path + ": format version " +
                        std::to_string(h.version) +
                        " is newer than supported version " +
                        std::to_string(kShardVersion));
    if (h.kind != static_cast<std::uint32_t>(manifest.kind))
        throw DataError("shard " + path + ": kind mismatch vs manifest");
    if (h.rows != manifest.rows || h.cols != manifest.cols)
        throw DataError("shard " + path + ": shape " +
                        std::to_string(h.rows) + "x" +
                        std::to_string(h.cols) + " does not match manifest " +
                        std::to_string(manifest.rows) + "x" +
                        std::to_string(manifest.cols));
    if (h.planes != kindPlanes(manifest.kind))
        throw DataError("shard " + path + ": plane count mismatch");
    if (h.samples != info.samples)
        throw DataError("shard " + path + ": sample count " +
                        std::to_string(h.samples) +
                        " does not match manifest entry " +
                        std::to_string(info.samples));
    const std::uint64_t expect_bytes =
        sampleBytes(manifest.kind, manifest.rows, manifest.cols) *
        info.samples;
    if (h.payload_bytes != info.bytes || h.payload_bytes != expect_bytes)
        throw DataError("shard " + path + ": payload size mismatch");
    return h;
}

/**
 * Read + verify one shard's header and payload into `raw` (storage
 * reused across calls). Validates against the manifest entry and the
 * recorded checksum.
 */
void
readShardPayload(const DatasetManifest &manifest, std::size_t shard,
                 std::vector<unsigned char> &raw)
{
    const ShardInfo &info = manifest.shards[shard];
    const std::string path = manifest.shardPath(shard);
    File file(path, "rb");
    if (file.fp == nullptr)
        throw DataError("shard " + path + ": missing or unreadable");
    ShardHeader h = readVerifiedHeader(manifest, shard, file.fp, path);
    raw.resize(static_cast<std::size_t>(h.payload_bytes));
    readExact(file.fp, raw.data(), raw.size(), path, "payload");
    const std::uint64_t sum = fnv1a64(raw.data(), raw.size());
    if (sum != h.checksum || sum != info.checksum)
        throw DataError("shard " + path + ": checksum mismatch (manifest " +
                        hex64(info.checksum) + ", payload " + hex64(sum) +
                        ")");
}

/** Copy one plane out of the payload into a shape-ensured RealMap. */
const unsigned char *
takePlane(const unsigned char *p, RealMap &plane, std::size_t rows,
          std::size_t cols)
{
    if (plane.rows() != rows || plane.cols() != cols)
        plane = RealMap(rows, cols);
    std::memcpy(plane.data(), p, rows * cols * sizeof(Real));
    return p + rows * cols * sizeof(Real);
}

const unsigned char *
takeLabel(const unsigned char *p, int &label)
{
    std::int32_t value = 0;
    std::memcpy(&value, p, sizeof(value));
    label = static_cast<int>(value);
    return p + sizeof(value);
}

/**
 * Decode shard `shard`'s verified payload into samples [offset, offset
 * + n) of `out`, whose columns already hold them; a plane of the right
 * shape keeps its storage. Non-finite pixels and labels outside
 * [0, num_classes) throw.
 */
template <typename Dataset>
void
decodeRecordsInto(const DatasetManifest &manifest, std::size_t shard,
                  const std::vector<unsigned char> &raw, Dataset &out,
                  std::size_t offset)
{
    const auto where = [&] { return "shard " + manifest.shardPath(shard); };
    const unsigned char *p = raw.data();
    for (std::size_t i = 0; i < manifest.shards[shard].samples; ++i)
        forEachField(out, offset + i, [&](auto &field) {
            if constexpr (kIsPlane<decltype(field)>) {
                p = takePlane(p, field, manifest.rows, manifest.cols);
                checkPlane(field, i, where);
            } else {
                p = takeLabel(p, field);
                checkLabel(field, manifest.num_classes, i, where);
            }
        });
}

/** An empty buffer of `kind`: the alternative whose index is its value. */
template <std::size_t I = 0>
ShardBuffer
emptyBuffer(ShardKind kind)
{
    if constexpr (I + 1 < std::variant_size_v<ShardBuffer>)
        if (static_cast<std::size_t>(kind) != I)
            return emptyBuffer<I + 1>(kind);
    return ShardBuffer(std::in_place_index<I>);
}

} // namespace

const char *
shardKindName(ShardKind kind)
{
    switch (kind) {
    case ShardKind::Class:
        return "class";
    case ShardKind::Seg:
        return "seg";
    default:
        return "rgb";
    }
}

ShardKind
shardKindFromName(const std::string &name)
{
    if (name == "class")
        return ShardKind::Class;
    if (name == "seg")
        return ShardKind::Seg;
    if (name == "rgb")
        return ShardKind::Rgb;
    throw DataError("unknown dataset kind: " + name);
}

std::uint64_t
fnv1a64(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
DatasetManifest::shardPath(std::size_t s) const
{
    return dir.empty() ? shards[s].file : dir + "/" + shards[s].file;
}

std::vector<std::size_t>
DatasetManifest::shardSizes() const
{
    std::vector<std::size_t> sizes;
    sizes.reserve(shards.size());
    for (const ShardInfo &info : shards)
        sizes.push_back(info.samples);
    return sizes;
}

Json
DatasetManifest::toJson() const
{
    Json j;
    j["format"] = Json(kManifestFormat);
    j["version"] = Json(kManifestVersion);
    j["kind"] = Json(shardKindName(kind));
    if (kind != ShardKind::Seg)
        j["num_classes"] = Json(num_classes);
    Json image;
    image["rows"] = Json(rows);
    image["cols"] = Json(cols);
    j["image"] = std::move(image);
    j["samples"] = Json(samples);
    Json shard_list;
    for (const ShardInfo &info : shards) {
        Json entry;
        entry["file"] = Json(info.file);
        entry["samples"] = Json(info.samples);
        entry["bytes"] = Json(static_cast<std::size_t>(info.bytes));
        entry["checksum"] = Json(hex64(info.checksum));
        shard_list.push(std::move(entry));
    }
    j["shards"] = std::move(shard_list);
    return j;
}

DatasetManifest
DatasetManifest::fromJson(const Json &j, const std::string &origin)
{
    try {
        if (!j.isObject())
            throw DataError(origin + ": manifest is not a JSON object");
        expectManifestKeys(j,
                           {"format", "version", "kind", "num_classes",
                            "image", "samples", "shards"},
                           origin, "manifest");
        if (!j.has("format") || j.at("format").asString() != kManifestFormat)
            throw DataError(origin + ": not a " +
                            std::string(kManifestFormat) + " manifest");
        const std::uint64_t version =
            j.has("version") ? j.at("version").asInteger("version", 1) : 1;
        if (version > kManifestVersion)
            throw DataError(origin + ": manifest version " +
                            std::to_string(version) +
                            " is newer than supported version " +
                            std::to_string(kManifestVersion));

        DatasetManifest manifest;
        manifest.kind = shardKindFromName(j.at("kind").asString());
        if (j.has("num_classes"))
            manifest.num_classes =
                j.at("num_classes").asInteger("num_classes");
        const Json &image = j.at("image");
        expectManifestKeys(image, {"rows", "cols"}, origin,
                           "manifest image");
        manifest.rows = image.at("rows").asInteger("image.rows", 1);
        manifest.cols = image.at("cols").asInteger("image.cols", 1);
        manifest.samples = j.at("samples").asInteger("samples");

        std::size_t total = 0;
        const Json::Array &shards = j.at("shards").asArray();
        for (std::size_t s = 0; s < shards.size(); ++s) {
            const Json &entry = shards[s];
            expectManifestKeys(entry,
                               {"file", "samples", "bytes", "checksum"},
                               origin, "manifest shard entry");
            const std::string at = "shards[" + std::to_string(s) + "].";
            ShardInfo info;
            info.file = entry.at("file").asString();
            // Bounded so the running total below cannot wrap.
            info.samples = entry.at("samples").asInteger(
                at + "samples", 0, manifest.samples - total);
            info.bytes = entry.at("bytes").asInteger(at + "bytes");
            info.checksum =
                parseHex64(entry.at("checksum").asString(), origin);
            total += info.samples;
            manifest.shards.push_back(std::move(info));
        }
        if (total != manifest.samples)
            throw DataError(origin + ": shard sample counts sum to " +
                            std::to_string(total) +
                            " but manifest declares " +
                            std::to_string(manifest.samples));
        return manifest;
    } catch (const JsonError &e) {
        throw DataError(origin + ": " + e.what());
    }
}

DatasetManifest
DatasetManifest::load(const std::string &path)
{
    Json j;
    try {
        j = Json::load(path);
    } catch (const JsonError &e) {
        throw DataError("manifest " + path + ": " + e.what());
    }
    DatasetManifest manifest = fromJson(j, "manifest " + path);
    const std::size_t slash = path.find_last_of('/');
    manifest.dir = slash == std::string::npos ? "" : path.substr(0, slash);
    return manifest;
}

void
decodeShardInto(const DatasetManifest &manifest, std::size_t shard,
                ShardBuffer &out)
{
    // One reusable payload buffer per calling thread: decode is invoked
    // from prefetcher pool jobs, and the buffer grows to the largest
    // shard once, then holds steady (arena-style reuse; the dataset's
    // RealMap storage below is likewise shape-stable after the first
    // epoch).
    thread_local std::vector<unsigned char> raw;
    readShardPayload(manifest, shard, raw);
    if (out.index() != static_cast<std::size_t>(manifest.kind))
        out = emptyBuffer(manifest.kind);
    std::visit(
        [&](auto &data) {
            shapeColumns(data, manifest, manifest.shards[shard].samples);
            decodeRecordsInto(manifest, shard, raw, data, 0);
        },
        out);
}

void
validateManifest(const DatasetManifest &manifest)
{
    ShardBuffer buffer;
    for (std::size_t s = 0; s < manifest.shards.size(); ++s)
        decodeShardInto(manifest, s, buffer);
}

void
verifyShardHeaders(const DatasetManifest &manifest)
{
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        const std::string path = manifest.shardPath(s);
        File file(path, "rb");
        if (file.fp == nullptr)
            throw DataError("shard " + path + ": missing or unreadable");
        readVerifiedHeader(manifest, s, file.fp, path);
    }
}

void
checkManifestKind(const DatasetManifest &manifest, ShardKind kind)
{
    if (manifest.kind != kind)
        throw DataError("dataset manifest in '" + manifest.dir +
                        "': holds '" + shardKindName(manifest.kind) +
                        "' samples where a '" + shardKindName(kind) +
                        "' dataset is required");
}

template <typename Dataset>
DatasetManifest
writeShards(const Dataset &data, const std::string &dir,
            const PackOptions &options)
{
    const auto where = [&] { return "dataset for " + dir; };
    for (std::size_t i = 0; i < data.size(); ++i)
        forEachField(data, i, [&](const auto &field) {
            if constexpr (kIsPlane<decltype(field)>)
                checkPlane(field, i, where);
            else
                checkLabel(field, data.num_classes, i, where);
        });
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    DatasetManifest manifest;
    manifest.kind = shardKindOf<Dataset>();
    if constexpr (kLabeled<Dataset>)
        manifest.num_classes = data.num_classes;
    if (data.size() > 0)
        forEachField(data, 0, [&](const auto &field) {
            if constexpr (kIsPlane<decltype(field)>) {
                manifest.rows = field.rows();
                manifest.cols = field.cols();
            }
        });
    manifest.samples = data.size();
    manifest.dir = dir;

    const std::size_t per_shard =
        options.shard_samples > 0 ? options.shard_samples
                                  : std::max<std::size_t>(data.size(), 1);
    std::vector<unsigned char> payload;
    for (std::size_t start = 0; start < data.size(); start += per_shard) {
        const std::size_t n = std::min(per_shard, data.size() - start);
        payload.clear();
        for (std::size_t i = start; i < start + n; ++i)
            forEachField(data, i, [&](const auto &field) {
                if constexpr (kIsPlane<decltype(field)>)
                    appendPlane(payload, field);
                else
                    appendLabel(payload, field);
            });

        char name[32];
        std::snprintf(name, sizeof(name), "shard_%05zu.bin",
                      manifest.shards.size());
        ShardInfo info;
        info.file = name;
        info.samples = n;
        info.bytes = payload.size();
        info.checksum = fnv1a64(payload.data(), payload.size());

        const std::string path = dir + "/" + name;
        File file(path, "wb");
        if (file.fp == nullptr)
            throw DataError("shard " + path + ": cannot open for writing");
        ShardHeader h;
        std::memcpy(h.magic, kShardMagic, sizeof(h.magic));
        h.kind = static_cast<std::uint32_t>(manifest.kind);
        h.rows = static_cast<std::uint32_t>(manifest.rows);
        h.cols = static_cast<std::uint32_t>(manifest.cols);
        h.planes = static_cast<std::uint32_t>(kindPlanes(manifest.kind));
        h.samples = n;
        h.payload_bytes = payload.size();
        h.checksum = info.checksum;
        writeHeader(file.fp, h, path);
        writeExact(file.fp, payload.data(), payload.size(), path);

        manifest.shards.push_back(std::move(info));
    }

    const std::string manifest_path = dir + "/manifest.json";
    if (!manifest.toJson().save(manifest_path))
        throw DataError("manifest " + manifest_path + ": cannot write");
    return manifest;
}

template <typename Dataset>
Dataset
materialize(const DatasetManifest &manifest)
{
    checkManifestKind(manifest, shardKindOf<Dataset>());
    Dataset data;
    shapeColumns(data, manifest, 0);
    std::vector<unsigned char> raw;
    std::size_t offset = 0;
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        readShardPayload(manifest, s, raw);
        const std::size_t n = manifest.shards[s].samples;
        shapeColumns(data, manifest, offset + n);
        decodeRecordsInto(manifest, s, raw, data, offset);
        offset += n;
    }
    return data;
}

template DatasetManifest writeShards(const ClassDataset &,
                                     const std::string &,
                                     const PackOptions &);
template DatasetManifest writeShards(const SegDataset &, const std::string &,
                                     const PackOptions &);
template DatasetManifest writeShards(const RgbDataset &, const std::string &,
                                     const PackOptions &);
template ClassDataset materialize(const DatasetManifest &);
template SegDataset materialize(const DatasetManifest &);
template RgbDataset materialize(const DatasetManifest &);

} // namespace lightridge
