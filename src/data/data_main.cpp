/**
 * @file
 * lightridge_data: pack synthetic datasets into on-disk shards and
 * inspect/validate the resulting manifests.
 *
 *   lightridge_data pack --dataset=digits|fashion|city|scenes
 *                        --out=DIR [--samples=N] [--seed=S]
 *                        [--image-size=K] [--shards=M | --shard-samples=P]
 *   lightridge_data inspect  <manifest.json>
 *   lightridge_data validate <manifest.json>
 *
 * `pack` synthesizes the named dataset exactly like the experiment
 * runner (same generators, seeded) and writes it to DIR as binary
 * shards plus a manifest.json, ready for a `"dataset": {"kind":
 * "sharded", ...}` spec block. `inspect` prints the manifest summary
 * after a header-only pass over every shard; `validate` additionally
 * re-reads every payload and checks the checksums. An unknown flag or a
 * bad flag value is a usage error. Exit codes: 0 success, 1 usage
 * error, 2 data error (the message names the offending shard).
 */
#include <cstdio>
#include <string>

#include "data/shard.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_fashion.hpp"
#include "data/synth_scenes.hpp"
#include "utils/cli.hpp"

using namespace lightridge;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: lightridge_data pack --dataset=digits|fashion|city|scenes\n"
        "                            --out=DIR [--samples=N] [--seed=S]\n"
        "                            [--image-size=K]\n"
        "                            [--shards=M | --shard-samples=P]\n"
        "       lightridge_data inspect  <manifest.json>\n"
        "       lightridge_data validate <manifest.json>\n"
        "\n"
        "Packs a synthesized dataset into binary shards + manifest.json\n"
        "(the on-disk format streamed training reads), or checks an\n"
        "existing manifest: inspect verifies shard headers, validate\n"
        "re-reads every payload and its checksum.\n");
}

void
printManifest(const std::string &path, const DatasetManifest &manifest)
{
    std::printf("manifest:   %s\n", path.c_str());
    std::printf("kind:       %s\n", shardKindName(manifest.kind));
    std::printf("shape:      %zux%zu\n", manifest.rows, manifest.cols);
    if (manifest.kind != ShardKind::Seg)
        std::printf("classes:    %zu\n", manifest.num_classes);
    std::printf("samples:    %zu\n", manifest.samples);
    std::printf("shards:     %zu\n", manifest.shards.size());
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        const ShardInfo &info = manifest.shards[s];
        std::printf("  %-20s %6zu samples  %10llu bytes  fnv1a %016llx\n",
                    info.file.c_str(), info.samples,
                    static_cast<unsigned long long>(info.bytes),
                    static_cast<unsigned long long>(info.checksum));
    }
}

int
packCommand(const CliArgs &args)
{
    args.rejectUnknown({"dataset", "out", "samples", "seed", "image-size",
                        "shards", "shard-samples"});
    const std::string dataset = args.getString("dataset", "");
    const std::string out = args.getString("out", "");
    if (out.empty() || dataset.empty()) {
        usage();
        return 1;
    }
    const std::size_t samples =
        static_cast<std::size_t>(args.getInt("samples", 300, 1));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 7, 0));
    const int image_size = args.getInt("image-size", 0, 0);

    PackOptions options;
    if (args.has("shard-samples")) {
        options.shard_samples =
            static_cast<std::size_t>(args.getInt("shard-samples", 0, 0));
    } else if (args.has("shards")) {
        const std::size_t shards =
            static_cast<std::size_t>(args.getInt("shards", 1, 1));
        options.shard_samples = (samples + shards - 1) / shards;
    }

    DatasetManifest manifest;
    if (dataset == "digits") {
        DigitConfig dc;
        if (image_size > 0)
            dc.image_size = static_cast<std::size_t>(image_size);
        manifest = writeShards(makeSynthDigits(samples, seed, dc), out,
                               options);
    } else if (dataset == "fashion") {
        FashionConfig fc;
        if (image_size > 0)
            fc.image_size = static_cast<std::size_t>(image_size);
        manifest = writeShards(makeSynthFashion(samples, seed, fc), out,
                               options);
    } else if (dataset == "city") {
        CityConfig cc;
        if (image_size > 0)
            cc.image_size = static_cast<std::size_t>(image_size);
        manifest = writeShards(makeSynthCity(samples, seed, cc), out,
                               options);
    } else if (dataset == "scenes") {
        SceneConfig sc;
        if (image_size > 0)
            sc.image_size = static_cast<std::size_t>(image_size);
        manifest = writeShards(makeSynthScenes(samples, seed, sc), out,
                               options);
    } else {
        std::fprintf(stderr, "lightridge_data: unknown dataset: %s\n",
                     dataset.c_str());
        return 1;
    }

    printManifest(out + "/manifest.json", manifest);
    return 0;
}

int
inspectCommand(const std::string &path, bool full)
{
    const DatasetManifest manifest = DatasetManifest::load(path);
    if (full)
        validateManifest(manifest);
    else
        verifyShardHeaders(manifest);
    printManifest(path, manifest);
    std::printf("status:     %s\n", full ? "ok (payload checksums verified)"
                                         : "ok (shard headers verified)");
    return 0;
}

int
run(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    const CliArgs args(argc - 1, argv + 1);

    if (command == "pack")
        return packCommand(args);
    if (command == "inspect" || command == "validate") {
        args.rejectUnknown({});
        // The manifest path is the first positional after the command.
        std::string path;
        for (int i = 2; i < argc; ++i) {
            if (std::string(argv[i]).rfind("--", 0) != 0) {
                path = argv[i];
                break;
            }
        }
        if (path.empty()) {
            usage();
            return 1;
        }
        return inspectCommand(path, command == "validate");
    }

    std::fprintf(stderr, "lightridge_data: unknown command: %s\n",
                 command.c_str());
    usage();
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("lightridge_data", run, argc, argv);
}
