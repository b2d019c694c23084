/**
 * @file
 * Socket serving front end: a poll-based HTTP/1.1 server with N
 * acceptor/IO threads in front of the ModelRegistry/InferenceEngine,
 * plus the ServingService request-handling core that the socket mode
 * and the JSON-lines stdin mode of `lightridge_serve` both share (one
 * JSON schema, one parser, one response renderer).
 *
 * The server never blocks an IO thread on inference: the infer route
 * submits to the engine's async queue and parks the future on the
 * connection; the event loop writes the response when it resolves,
 * keeping every IO thread free to accept, read, and flush other
 * connections meanwhile. SLA plumbing is end to end — request JSON
 * carries `deadline_ms`/`priority`, engine sheds map to 503 +
 * Retry-After, deadline expiries to 504, and `GET /metrics` renders
 * the engine's lock-cheap counters plus the transport's own.
 *
 * Routes:
 *   POST /v1/models/<name>/infer   body: {"id","image"|"sample",
 *                                         "deadline_ms","priority"}
 *   GET  /healthz                  liveness probe
 *   GET  /metrics                  Prometheus-style text exposition
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "utils/json.hpp"
#include "utils/sync.hpp"

namespace lightridge {

// ---------------------------------------------------------------------
// Shared request-handling core (stdin JSON-lines mode + socket mode)
// ---------------------------------------------------------------------

/** Thread-safe lazily generated synthetic datasets keyed by
 *  "<dataset>:<seed>" — backs `"sample"` requests in both modes. */
class SampleSource
{
  public:
    struct Sample
    {
        RealMap image;
        int label = -1;
    };

    /** Largest `index` a request may ask for: synthesizing a sample
     *  generates every sample before it on the IO thread. */
    static constexpr std::size_t kMaxIndex = 4096;

    /** Cached (dataset, seed) streams; a new stream past this evicts one. */
    static constexpr std::size_t kMaxCachedStreams = 4;

    /** Sample `index` (<= kMaxIndex) of the (dataset, seed) stream; grows
     *  the cached dataset geometrically when the index is past what was
     *  generated.
     *  @throws JsonError on an unknown dataset name or a larger index */
    Sample sample(const std::string &name, std::uint64_t seed,
                  std::size_t index) LIGHTRIDGE_EXCLUDES(mutex_);

  private:
    Mutex mutex_;
    std::map<std::string, ClassDataset> cache_ LIGHTRIDGE_GUARDED_BY(mutex_);
};

/** One parsed serving request plus serve-side bookkeeping. */
struct ParsedServeRequest
{
    InferRequest request;
    int label = -1; ///< ground truth for "sample" requests, else -1
};

/**
 * Parse the one serving-request JSON schema both modes speak:
 * `{"id", "model", "image": {rows, cols, data} | "sample": {dataset,
 * seed, index}, "deadline_ms", "priority"}`. `model_hint` (the socket
 * path's URL model) backs an absent "model" field; when both are
 * present they must agree.
 * @throws JsonError on schema violations
 */
ParsedServeRequest
parseServeRequestJson(const Json &j, std::uint64_t fallback_id,
                      SampleSource &samples,
                      const std::string &model_hint = {});

/** Render one response in the shared schema (`status` is always
 *  present; `label` >= 0 adds ground truth; logits optional). */
Json serveResponseJson(const InferResponse &response, int label,
                       bool with_logits);

/** HTTP status code a ServeStatus maps to (200/504/503/404/400). */
int httpStatusForServeStatus(ServeStatus status);

// ---------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------

/** A response that is not ready yet: the event loop polls `ready()`
 *  and writes `take()` once it resolves. */
class PendingHttpReply
{
  public:
    virtual ~PendingHttpReply() = default;
    virtual bool ready() = 0;
    virtual HttpResponse take() = 0;
};

/** What a handler returns: an immediate response, or a deferred one. */
struct HttpHandlerResult
{
    HttpResponse response;
    std::unique_ptr<PendingHttpReply> deferred; ///< wins when set
};

using HttpHandler = std::function<HttpHandlerResult(HttpRequest &&)>;

struct HttpServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 binds an ephemeral port (see port())

    /** Acceptor/IO threads. Every one polls the listening socket and
     *  owns the connections it accepted. 0 resolves to half the
     *  hardware threads, at least 1. */
    std::size_t io_threads = 0;

    std::size_t max_connections = 1024; ///< across all IO threads
    int idle_timeout_ms = 30000;        ///< keep-alive idle cutoff
    HttpParser::Limits limits;

    /**
     * Seconds for the Retry-After header on connection-limit 503s.
     * The transport has no engine reference, so the owner wires this to
     * `InferenceEngine::retryAfterSeconds` and all three shed paths
     * (connection limit, engine shed, submit-time overload) advertise
     * one consistently derived backoff. Unset falls back to 1s.
     * Called from IO threads — must be thread-safe and non-blocking.
     */
    std::function<int()> retry_after_hint;
};

/** Transport-level counters (rendered under /metrics next to the
 *  engine's serving counters). */
struct HttpTransportStats
{
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0; ///< over max_connections
    std::uint64_t requests = 0;             ///< HTTP requests handled
    std::uint64_t parse_errors = 0;         ///< malformed/oversized
};

/**
 * Minimal-dependency HTTP/1.1 server: poll() event loop, N acceptor/IO
 * threads, keep-alive with pipelining, incremental parsing, deferred
 * (async) replies. Start with start(); stop() (or destruction) closes
 * the listener, flushes nothing further, and joins the IO threads.
 */
class HttpServer
{
  public:
    HttpServer(HttpServerConfig config, HttpHandler handler);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind + listen + spawn the IO threads.
     *  @throws std::runtime_error on bind/listen failure */
    void start();

    /** Close the listener, drop connections, join the IO threads.
     *  Idempotent. */
    void stop();

    bool running() const { return running_.load(); }

    /** Resolved port (after start(); meaningful with config port 0). */
    std::uint16_t port() const { return port_; }

    /** Resolved IO-thread count (after construction). */
    std::size_t ioThreads() const { return io_threads_; }

    HttpTransportStats transportStats() const;

    /** Prometheus-style text lines for the transport counters. */
    std::string transportMetricsText() const;

  private:
    struct Connection;

    void ioLoop();
    void acceptReady(std::vector<std::unique_ptr<Connection>> &conns);
    /** @return false when the connection should be destroyed */
    bool serviceRead(Connection &conn);
    bool serviceWrite(Connection &conn);
    void processParsed(Connection &conn);

    HttpServerConfig config_;
    HttpHandler handler_;
    std::size_t io_threads_ = 1;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<std::size_t> open_connections_{0};
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> connections_rejected_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> parse_errors_{0};
    std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------
// Serving service: routes HTTP onto the registry + engine
// ---------------------------------------------------------------------

struct ServingServiceConfig
{
    bool with_logits = true; ///< include logits in response JSON

    /** Applied when a request carries no deadline_ms (0 = none). */
    double default_deadline_ms = 0;
};

/** The HTTP handler of the serving front end. Also exposes the shared
 *  parse/render core so the stdin mode goes through exactly the same
 *  code path as the socket mode. */
class ServingService
{
  public:
    ServingService(ModelRegistry &registry, InferenceEngine &engine,
                   ServingServiceConfig config = {});

    /** HTTP routing entry point (bind into an HttpServer). */
    HttpHandlerResult handle(HttpRequest &&request);

    /** Shared core: parse one request of the common JSON schema. */
    ParsedServeRequest parseLine(const Json &j, std::uint64_t fallback_id,
                                 const std::string &model_hint = {});

    /** Shared core: render one response of the common JSON schema. */
    Json responseJson(const InferResponse &response, int label) const;

    /** Map a resolved engine response onto the HTTP representation
     *  (status code, Retry-After on sheds, JSON body). */
    HttpResponse renderHttp(const InferResponse &response,
                            int label) const;

    /** Extra /metrics text appended after the engine's exposition
     *  (the HttpServer's transport counters, typically). */
    void setExtraMetrics(std::function<std::string()> extra);

    InferenceEngine &engine() { return engine_; }

  private:
    HttpHandlerResult inferRoute(const std::string &model,
                                 HttpRequest &&request);

    ModelRegistry &registry_;
    InferenceEngine &engine_;
    ServingServiceConfig config_;
    SampleSource samples_;
    std::function<std::string()> extra_metrics_;
    std::atomic<std::uint64_t> next_id_{1};
};

// ---------------------------------------------------------------------
// Minimal blocking client (bench, tests, CI drivers)
// ---------------------------------------------------------------------

/** Blocking keep-alive HTTP/1.1 client for loopback drivers: one
 *  connection, sequential request/response. Not a general client —
 *  just enough to close-loop the server in benches and tests. */
class HttpClient
{
  public:
    HttpClient(std::string host, std::uint16_t port);
    ~HttpClient();

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /** Send one request and block for the response (connects lazily,
     *  reconnects after a server-side close).
     *  @throws std::runtime_error on connect/IO/parse failure */
    HttpResponse request(const std::string &method,
                         const std::string &target,
                         const std::string &body = {},
                         const std::string &content_type =
                             "application/json");

    void close();

  private:
    void ensureConnected();

    std::string host_;
    std::uint16_t port_;
    int fd_ = -1;
    std::string leftover_; ///< bytes past the previous response
};

} // namespace lightridge
