/**
 * @file
 * lightridge_serve: multi-model DONN inference server driven by a JSON
 * model manifest, answering either a JSON-lines request stream (stdin
 * mode) or HTTP requests over a socket (--listen mode). Both modes run
 * the same request-handling core (serve/server.hpp ServingService): one
 * JSON schema, one parser, one response renderer, one engine.
 *
 *   lightridge_serve <manifest.json> [--requests=FILE|-] [--out=FILE]
 *                    [--stats=FILE] [--max-batch=N] [--max-queue=N]
 *                    [--quota=N] [--default-deadline-ms=MS]
 *                    [--no-logits] [--quiet]
 *                    [--listen=HOST:PORT] [--io-threads=N]
 *                    [--max-connections=N] [--port-file=FILE]
 *
 * Manifest:
 *   {
 *     "models": [
 *       {"name": "digits", "checkpoint": "digits_ckpt.json"},
 *       {"name": "fresh",  "spec": "examples/specs/digits_tiny.json"}
 *     ],
 *     "batching": {"max_batch": 64, "max_queue": 4096}
 *   }
 * "checkpoint" entries load trained models (header-verified); "spec"
 * entries build the architecture of an ExperimentSpec with untrained
 * weights (latency/smoke testing). "batching" takes only those two
 * keys, each an integer >= 1. Keys are strict: the manifest takes only
 * "models" and "batching", a model entry "name" plus exactly one of
 * "checkpoint" and "spec", and an ensemble entry (below) "name",
 * "kind": "ensemble", "members" and "fusion". Anything else exits 2
 * naming the key.
 *
 * Requests, one JSON object per line (file or stdin) — the same schema
 * the HTTP route accepts as a body:
 *   {"id": 1, "model": "digits",
 *    "image": {"rows": 28, "cols": 28, "data": [...]}}
 *   {"id": 2, "model": "digits", "deadline_ms": 50,
 *    "priority": "interactive",
 *    "sample": {"dataset": "digits", "seed": 5, "index": 3}}
 * "sample" requests synthesize the referenced dataset sample; their
 * responses carry the ground-truth "label" so accuracy can be scored
 * downstream (tools/smoke.py serve does exactly this).
 *
 * Socket mode (--listen): serves POST /v1/models/<name>/infer,
 * GET /healthz, GET /metrics until SIGINT/SIGTERM, then shuts down
 * cleanly (stops accepting, joins IO threads, drains the engine) and
 * prints the same stats JSON. PORT 0 binds an ephemeral port;
 * --port-file writes the resolved port for drivers.
 *
 * Responses are JSON lines in request order; a final stats JSON records
 * throughput and micro-batch shape. Integer flags must be whole integers
 * in range (--max-batch and --max-queue >= 1, the --listen port in
 * [0, 65535]); an unknown flag or a bad flag value exits 1 naming the
 * flag. Exit codes: 0 success, 1 usage, 2 manifest/spec error, 3 one or
 * more requests failed (stdin mode).
 */
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "core/task.hpp"
#include "data/synth_digits.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "utils/cli.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: lightridge_serve <manifest.json> [--requests=FILE|-]\n"
        "                        [--out=FILE] [--stats=FILE]\n"
        "                        [--max-batch=N] [--max-queue=N]\n"
        "                        [--quota=N] [--default-deadline-ms=MS]\n"
        "                        [--no-logits] [--quiet]\n"
        "                        [--listen=HOST:PORT] [--io-threads=N]\n"
        "                        [--max-connections=N] [--port-file=FILE]\n"
        "\n"
        "Serves the models of a JSON manifest through the micro-batching\n"
        "InferenceEngine: against a JSON-lines request stream, or (with\n"
        "--listen) over an HTTP/1.1 socket until SIGINT/SIGTERM.\n");
}

/** Whether a manifest entry declares an ensemble; any other "kind" is a
 *  JsonError, never a plain model. */
bool
isEnsemble(const Json &entry)
{
    if (!entry.has("kind"))
        return false;
    const std::string &kind = entry.at("kind").asString();
    if (kind != "ensemble")
        throw JsonError("unknown model kind: " + kind);
    return true;
}

volatile std::sig_atomic_t g_shutdown = 0;

void
onSignal(int)
{
    g_shutdown = 1;
}

Json
statsJson(const InferenceEngine &engine, double wall_ms,
          const char *dispatch)
{
    const EngineStats stats = engine.stats();
    Json j;
    j["requests"] = Json(static_cast<std::size_t>(stats.requests));
    j["failed"] = Json(static_cast<std::size_t>(stats.failed));
    j["shed"] = Json(static_cast<std::size_t>(stats.shed));
    j["expired"] = Json(static_cast<std::size_t>(stats.expired));
    j["batches"] = Json(static_cast<std::size_t>(stats.batches));
    j["mean_batch"] = Json(stats.meanBatch());
    j["max_batch"] = Json(stats.max_batch);
    j["ensembles"] = Json(static_cast<std::size_t>(stats.ensembles));
    j["fan_out"] = Json(static_cast<std::size_t>(stats.fan_out));
    j["wall_ms"] = Json(wall_ms);
    j["throughput_rps"] =
        Json(wall_ms > 0
                 ? 1e3 * static_cast<double>(stats.requests) / wall_ms
                 : 0.0);
    j["dispatch"] = Json(std::string(dispatch));
    return j;
}

int
runStdinMode(ServingService &service, InferenceEngine &engine,
             CliArgs &args, bool quiet)
{
    const std::string requests_path = args.getString("requests", "-");
    std::ifstream request_file;
    std::istream *request_stream = &std::cin;
    if (requests_path != "-") {
        request_file.open(requests_path);
        if (!request_file) {
            std::fprintf(stderr, "lightridge_serve: cannot open %s\n",
                         requests_path.c_str());
            return 1;
        }
        request_stream = &request_file;
    }

    std::vector<ParsedServeRequest> parsed;
    std::string line;
    std::uint64_t line_no = 0;
    try {
        while (std::getline(*request_stream, line)) {
            ++line_no;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            parsed.push_back(
                service.parseLine(Json::parse(line), line_no));
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "lightridge_serve: bad request on line %llu: %s\n",
                     static_cast<unsigned long long>(line_no), e.what());
        return 2;
    }

    std::ofstream out_file;
    std::ostream *out = &std::cout;
    if (args.has("out")) {
        out_file.open(args.getString("out", ""));
        if (!out_file) {
            std::fprintf(stderr, "lightridge_serve: cannot write %s\n",
                         args.getString("out", "").c_str());
            return 1;
        }
        out = &out_file;
    }

    std::size_t failed = 0;
    WallTimer wall;

    auto emit = [&](std::future<InferResponse> &future, int label) {
        const InferResponse response = future.get();
        if (!response.ok())
            ++failed;
        (*out) << service.responseJson(response, label).dump() << "\n";
    };

    std::vector<std::future<InferResponse>> futures;
    futures.reserve(parsed.size());
    for (ParsedServeRequest &p : parsed)
        futures.push_back(service.engine().submit(std::move(p.request)));
    for (std::size_t i = 0; i < futures.size(); ++i)
        emit(futures[i], parsed[i].label);
    // All futures resolved, but the dispatcher finishes its accounting
    // for the last batch after fulfilling the promises — drain() waits
    // for that so the stats snapshot is complete.
    engine.drain();

    Json stats = statsJson(engine, wall.milliseconds(), "batched");
    if (args.has("stats"))
        stats.save(args.getString("stats", ""));
    if (!quiet)
        std::fprintf(stderr, "[serve] %s\n", stats.dump().c_str());

    return failed == 0 ? 0 : 3;
}

int
runSocketMode(ServingService &service, InferenceEngine &engine,
              CliArgs &args, const std::string &listen, bool quiet)
{
    HttpServerConfig config;
    const std::size_t colon = listen.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "lightridge_serve: --listen needs HOST:PORT\n");
        return 1;
    }
    config.host = listen.substr(0, colon);
    config.port = static_cast<std::uint16_t>(
        parseIntFlag("listen port", listen.substr(colon + 1), 0, 65535));
    config.io_threads =
        static_cast<std::size_t>(args.getInt("io-threads", 0, 0));
    config.max_connections =
        static_cast<std::size_t>(args.getInt("max-connections", 1024, 1));
    // All three shed paths (connection limit here, engine sheds and
    // submit-time overloads inside ServingService) advertise the same
    // backlog-derived Retry-After.
    config.retry_after_hint = [&engine] {
        return engine.retryAfterSeconds();
    };

    HttpServer server(config, [&service](HttpRequest &&request) {
        return service.handle(std::move(request));
    });
    service.setExtraMetrics(
        [&server] { return server.transportMetricsText(); });

    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lightridge_serve: %s\n", e.what());
        return 1;
    }
    if (!quiet)
        std::fprintf(stderr,
                     "[serve] listening on %s:%u (%zu io threads)\n",
                     config.host.c_str(), server.port(),
                     server.ioThreads());
    if (args.has("port-file")) {
        std::ofstream port_file(args.getString("port-file", ""));
        port_file << server.port() << "\n";
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    WallTimer wall;
    while (!g_shutdown)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Clean shutdown: stop accepting + join IO threads first (no new
    // submissions), then let the engine finish what was admitted.
    server.stop();
    engine.drain();
    const double wall_ms = wall.milliseconds();

    Json stats = statsJson(engine, wall_ms, "socket");
    const HttpTransportStats transport = server.transportStats();
    Json t;
    t["connections_accepted"] = Json(
        static_cast<std::size_t>(transport.connections_accepted));
    t["connections_rejected"] = Json(
        static_cast<std::size_t>(transport.connections_rejected));
    t["http_requests"] =
        Json(static_cast<std::size_t>(transport.requests));
    t["parse_errors"] =
        Json(static_cast<std::size_t>(transport.parse_errors));
    t["io_threads"] = Json(server.ioThreads());
    stats["transport"] = std::move(t);
    if (args.has("stats"))
        stats.save(args.getString("stats", ""));
    if (!quiet)
        std::fprintf(stderr, "[serve] %s\n", stats.dump().c_str());
    return 0;
}

int
serve(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '-') {
        usage();
        return 1;
    }
    const std::string manifest_path = argv[1];
    CliArgs args(argc, argv);
    args.rejectUnknown({"requests", "out", "stats", "max-batch", "max-queue",
                        "quota", "default-deadline-ms", "no-logits", "quiet",
                        "listen", "io-threads", "max-connections",
                        "port-file"});
    const bool quiet = args.getBool("quiet", false);
    const bool with_logits = !args.getBool("no-logits", false);
    const std::string listen = args.getString("listen", "");

    // ---- manifest: registry + batching knobs ---------------------------
    ModelRegistry registry;
    BatchingConfig batching;
    try {
        Json manifest = Json::load(manifest_path);
        expectKeys(manifest, {"models", "batching"}, "manifest");
        if (manifest.has("batching"))
            batching = BatchingConfig::fromJson(manifest.at("batching"));
        // Two passes: models first, then ensembles, so an ensemble may
        // name members declared later in the file. Duplicate names are
        // a manifest error — silently hot-swapping the earlier entry
        // almost certainly serves the wrong model.
        std::set<std::string> seen;
        for (const Json &entry : manifest.at("models").asArray()) {
            const std::string &name = entry.at("name").asString();
            if (!seen.insert(name).second)
                throw JsonError("manifest declares model \"" + name +
                                "\" more than once");
            const std::string where = "manifest model \"" + name + "\"";
            if (isEnsemble(entry)) {
                expectKeys(entry, {"name", "kind", "members", "fusion"},
                           where);
                continue;
            }
            expectKeys(entry, {"name", "checkpoint", "spec"}, where);
            if (entry.has("checkpoint") == entry.has("spec"))
                throw JsonError(where + " takes exactly one of "
                                "\"checkpoint\" and \"spec\"");
            if (entry.has("checkpoint")) {
                registry.registerCheckpoint(
                    name, entry.at("checkpoint").asString());
            } else {
                ExperimentSpec spec =
                    ExperimentSpec::load(entry.at("spec").asString());
                std::size_t classes = spec.detector.classes;
                if (classes == 0)
                    classes = makeSynthDigits(1, spec.data.seed).num_classes;
                Rng rng(spec.model_seed);
                DonnModel model = buildSpecModel(spec, classes, &rng);
                // The init rng dies with this scope; the served model
                // must not keep a noise pointer into it (codesign
                // layers store it — noise is a training-only concern).
                bindModelNoiseRng(model, nullptr);
                registry.registerModel(name, std::move(model));
            }
            if (!quiet)
                std::fprintf(stderr, "[serve] registered %s (%zux%zu)\n",
                             name.c_str(),
                             registry.acquire(name)->spec().size,
                             registry.acquire(name)->spec().size);
        }
        for (const Json &entry : manifest.at("models").asArray()) {
            if (!isEnsemble(entry))
                continue;
            EnsembleSpec spec;
            spec.name = entry.at("name").asString();
            for (const Json &member : entry.at("members").asArray())
                spec.members.push_back(member.asString());
            if (entry.has("fusion")) {
                try {
                    spec.fusion =
                        fusionRuleFromName(entry.at("fusion").asString());
                } catch (const std::invalid_argument &e) {
                    throw JsonError(e.what());
                }
            }
            const std::size_t fan = spec.members.size();
            // Self-referencing or missing members are rejected here
            // (registerEnsemble validates against the registry).
            registry.registerEnsemble(std::move(spec));
            if (!quiet)
                std::fprintf(stderr,
                             "[serve] registered %s (ensemble of %zu)\n",
                             entry.at("name").asString().c_str(), fan);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lightridge_serve: bad manifest %s: %s\n",
                     manifest_path.c_str(), e.what());
        return 2;
    }
    if (args.has("max-batch"))
        batching.max_batch =
            static_cast<std::size_t>(args.getInt("max-batch", 64, 1));
    if (args.has("max-queue"))
        batching.max_queue =
            static_cast<std::size_t>(args.getInt("max-queue", 4096, 1));
    if (args.has("quota")) {
        batching.max_queued_per_model =
            static_cast<std::size_t>(args.getInt("quota", 0, 0));
    } else if (!listen.empty()) {
        // Socket default: shed (503 + Retry-After) at the queue bound
        // instead of blocking an IO thread on backpressure.
        batching.max_queued_per_model = batching.max_queue;
    }

    InferenceEngine engine(registry, batching);
    ServingServiceConfig service_config;
    service_config.with_logits = with_logits;
    service_config.default_deadline_ms =
        args.getDouble("default-deadline-ms", 0.0);
    ServingService service(registry, engine, service_config);

    return listen.empty()
               ? runStdinMode(service, engine, args, quiet)
               : runSocketMode(service, engine, args, listen, quiet);
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("lightridge_serve", serve, argc, argv);
}
