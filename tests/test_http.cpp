/**
 * @file
 * HTTP layer tests: the incremental request parser (split, pipelined,
 * oversized and malformed input; chunked rejected cleanly with a typed
 * status), keep-alive negotiation, and the socket server end to end on
 * loopback — routing, typed error mapping (404/400/503/504), deadline
 * and admission semantics over the wire, pipelining, and bitwise parity
 * of the socket path against direct inference. Runs under the ASan and
 * TSan CI legs.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "data/synth_digits.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace lightridge {
namespace {

using State = HttpParser::State;

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

TEST(HttpParser, ReassemblesARequestFedByteByByte)
{
    const std::string wire = "POST /v1/models/digits/infer HTTP/1.1\r\n"
                             "Host: localhost\r\n"
                             "Content-Type: application/json\r\n"
                             "Content-Length: 4\r\n"
                             "\r\n"
                             "{\"\"}";
    HttpParser parser;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        ASSERT_EQ(parser.feed(wire.data() + i, 1), State::NeedMore)
            << "byte " << i;
    }
    ASSERT_EQ(parser.feed(wire.data() + wire.size() - 1, 1),
              State::Complete);
    const HttpRequest &request = parser.request();
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.target, "/v1/models/digits/infer");
    EXPECT_EQ(request.version, "HTTP/1.1");
    EXPECT_EQ(request.header("content-type"), "application/json");
    EXPECT_EQ(request.body, "{\"\"}");
    EXPECT_TRUE(request.keepAlive());
}

TEST(HttpParser, PipelinedRequestsParseInSequence)
{
    const std::string wire = "GET /healthz HTTP/1.1\r\n\r\n"
                             "POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
                             "\r\nhi"
                             "GET /metrics HTTP/1.1\r\n\r\n";
    HttpParser parser;
    ASSERT_EQ(parser.feed(wire.data(), wire.size()), State::Complete);
    EXPECT_EQ(parser.request().target, "/healthz");

    ASSERT_EQ(parser.next(), State::Complete);
    EXPECT_EQ(parser.request().method, "POST");
    EXPECT_EQ(parser.request().body, "hi");

    ASSERT_EQ(parser.next(), State::Complete);
    EXPECT_EQ(parser.request().target, "/metrics");
    ASSERT_EQ(parser.next(), State::NeedMore);
    EXPECT_EQ(parser.bufferedBytes(), 0u);
}

TEST(HttpParser, RejectsOversizedRequestLine)
{
    HttpParser::Limits limits;
    limits.max_request_line = 64;
    HttpParser parser(limits);
    const std::string long_target(1000, 'a');
    const std::string wire = "GET /" + long_target + " HTTP/1.1\r\n\r\n";
    EXPECT_EQ(parser.feed(wire.data(), wire.size()), State::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParser, RejectsOversizedBodyUpFront)
{
    HttpParser::Limits limits;
    limits.max_body = 16;
    HttpParser parser(limits);
    const std::string wire =
        "POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
    EXPECT_EQ(parser.feed(wire.data(), wire.size()), State::Error);
    EXPECT_EQ(parser.errorStatus(), 413);
}

TEST(HttpParser, RejectsMalformedInputWithTypedStatuses)
{
    struct Case
    {
        const char *wire;
        int status;
    };
    const Case cases[] = {
        {"NOT A VALID REQUEST LINE AT ALL\r\n\r\n", 400},
        {"GET noslash HTTP/1.1\r\n\r\n", 400},
        {"GET /x HTTP/2.0\r\n\r\n", 400},
        {"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n", 400},
        {"POST /x HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", 400},
        {"POST /x HTTP/1.1\r\nContent-Length: 9999999999999\r\n\r\n",
         400},
    };
    for (const Case &c : cases) {
        HttpParser parser;
        EXPECT_EQ(parser.feed(c.wire, std::strlen(c.wire)), State::Error)
            << c.wire;
        EXPECT_EQ(parser.errorStatus(), c.status) << c.wire;
    }
}

TEST(HttpParser, RejectsChunkedTransferEncodingCleanly)
{
    const std::string wire = "POST /x HTTP/1.1\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n"
                             "5\r\nhello\r\n0\r\n\r\n";
    HttpParser parser;
    EXPECT_EQ(parser.feed(wire.data(), wire.size()), State::Error);
    EXPECT_EQ(parser.errorStatus(), 501);
    EXPECT_NE(parser.errorReason().find("content-length"),
              std::string::npos);
}

TEST(HttpParser, KeepAliveFollowsVersionAndConnectionHeader)
{
    auto parse = [](const std::string &wire) {
        HttpParser parser;
        EXPECT_EQ(parser.feed(wire.data(), wire.size()), State::Complete);
        return parser.request().keepAlive();
    };
    EXPECT_TRUE(parse("GET / HTTP/1.1\r\n\r\n"));
    EXPECT_FALSE(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
    EXPECT_FALSE(parse("GET / HTTP/1.0\r\n\r\n"));
    EXPECT_TRUE(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    EXPECT_FALSE(
        parse("GET / HTTP/1.1\r\nConnection: Close, upgrade\r\n\r\n"));
}

TEST(HttpResponseSerialization, FramesWithContentLength)
{
    HttpResponse response;
    response.status = 503;
    response.content_type = "text/plain";
    response.headers["Retry-After"] = "1";
    response.body = "overloaded\n";
    const std::string wire = serializeHttpResponse(response, false);
    EXPECT_EQ(wire.compare(0, 25, "HTTP/1.1 503 Service Unav"), 0);
    EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - 11), "overloaded\n");
}

// ---------------------------------------------------------------------
// Loopback server
// ---------------------------------------------------------------------

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

Json
imageJson(const RealMap &frame)
{
    Json image;
    image["rows"] = Json(frame.rows());
    image["cols"] = Json(frame.cols());
    Json data;
    for (std::size_t i = 0; i < frame.size(); ++i)
        data.push(Json(frame[i]));
    image["data"] = std::move(data);
    return image;
}

/** One registry + engine + service + listening server on loopback. */
struct ServerFixture
{
    ModelRegistry registry;
    InferenceEngine engine;
    ServingService service;
    HttpServer server;

    explicit ServerFixture(BatchingConfig batching = {},
                           HttpServerConfig http = {})
        : engine((registerModels(registry), registry), batching),
          service(registry, engine),
          server(std::move(http),
                 [this](HttpRequest &&request) {
                     return service.handle(std::move(request));
                 })
    {
        service.setExtraMetrics(
            [this] { return server.transportMetricsText(); });
        server.start();
    }

    static void
    registerModels(ModelRegistry &registry)
    {
        registry.registerModel("digits", tinyModel(16, 1));
    }

    /** Raw byte exchange: connect, send, read until the server closes
     *  the connection (every error response closes). */
    std::string
    rawExchange(const std::string &bytes)
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
        std::string reply;
        char buf[4096];
        for (;;) {
            const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
            if (got <= 0)
                break;
            reply.append(buf, static_cast<std::size_t>(got));
        }
        ::close(fd);
        return reply;
    }
};

TEST(HttpServer, HealthzAndMetricsRoutes)
{
    ServerFixture fx;
    HttpClient client("127.0.0.1", fx.server.port());

    const HttpResponse health = client.request("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    const HttpResponse metrics = client.request("GET", "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("lightridge_requests_total"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("lightridge_queue_depth"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("lightridge_http_requests_total"),
              std::string::npos);
}

TEST(HttpServer, SocketInferenceIsBitwiseEqualToDirect)
{
    ServerFixture fx;
    HttpClient client("127.0.0.1", fx.server.port());
    std::shared_ptr<const DonnModel> model =
        fx.registry.acquire("digits");

    const ClassDataset data = makeSynthDigits(4, 7);
    for (std::size_t i = 0; i < data.size(); ++i) {
        Json body;
        body["id"] = Json(i + 1);
        body["image"] = imageJson(data.images[i]);
        const HttpResponse response = client.request(
            "POST", "/v1/models/digits/infer", body.dump());
        ASSERT_EQ(response.status, 200) << response.body;

        const Json j = Json::parse(response.body);
        EXPECT_EQ(j.at("status").asString(), "ok");
        EXPECT_EQ(static_cast<std::size_t>(j.at("id").asNumber()), i + 1);

        // %.17g JSON numbers round-trip doubles exactly, so the socket
        // path must reproduce direct inference bit for bit.
        const std::vector<Real> expected =
            directLogits(*model, data.images[i]);
        const Json::Array &logits = j.at("logits").asArray();
        ASSERT_EQ(logits.size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_EQ(logits[k].asNumber(), expected[k]) << "logit " << k;
        EXPECT_EQ(j.at("prediction").asInt(),
                  static_cast<int>(
                      std::max_element(expected.begin(), expected.end()) -
                      expected.begin()));
    }
}

TEST(HttpServer, SampleRequestsCarryGroundTruthLabels)
{
    ServerFixture fx;
    HttpClient client("127.0.0.1", fx.server.port());
    const ClassDataset data = makeSynthDigits(3, 11);
    for (std::size_t i = 0; i < data.size(); ++i) {
        Json sample;
        sample["dataset"] = Json("digits");
        sample["seed"] = Json(11);
        sample["index"] = Json(i);
        Json body;
        body["sample"] = std::move(sample);
        const HttpResponse response = client.request(
            "POST", "/v1/models/digits/infer", body.dump());
        ASSERT_EQ(response.status, 200) << response.body;
        const Json j = Json::parse(response.body);
        EXPECT_EQ(j.at("label").asInt(), data.labels[i]);
    }
}

TEST(HttpServer, TypedErrorsMapToHttpStatuses)
{
    ServerFixture fx;
    HttpClient client("127.0.0.1", fx.server.port());
    const RealMap frame = makeSynthDigits(1, 3).images[0];

    Json body;
    body["image"] = imageJson(frame);
    const HttpResponse unknown = client.request(
        "POST", "/v1/models/ghost/infer", body.dump());
    EXPECT_EQ(unknown.status, 404);
    EXPECT_EQ(Json::parse(unknown.body).at("status").asString(),
              "unknown_model");

    const HttpResponse bad_json = client.request(
        "POST", "/v1/models/digits/infer", "this is not json");
    EXPECT_EQ(bad_json.status, 400);
    EXPECT_EQ(Json::parse(bad_json.body).at("status").asString(),
              "bad_input");

    Json bad_priority;
    bad_priority["image"] = imageJson(frame);
    bad_priority["priority"] = Json("turbo");
    const HttpResponse bad = client.request(
        "POST", "/v1/models/digits/infer", bad_priority.dump());
    EXPECT_EQ(bad.status, 400);

    // A body nested past Json::kMaxDepth is a 400, and the server (and
    // this keep-alive connection) keeps answering afterwards.
    const HttpResponse deep = client.request(
        "POST", "/v1/models/digits/infer", std::string(200000, '['));
    EXPECT_EQ(deep.status, 400);
    EXPECT_EQ(Json::parse(deep.body).at("status").asString(), "bad_input");
    const HttpResponse after_deep = client.request(
        "POST", "/v1/models/digits/infer", body.dump());
    EXPECT_EQ(after_deep.status, 200);

    // Hostile bodies: image shapes whose rows*cols wraps to data.size(),
    // a finite frame whose logits overflow, sample indices that would
    // synthesize without bound, and ids or seeds no uint64_t holds. Each
    // is a quick 400 whose JSON body names the check, and the connection
    // answers the next request.
    RealMap blinding(frame.rows(), frame.cols(), 1e200);
    Json overflow;
    overflow["image"] = imageJson(blinding);
    Json huge_id = body;
    huge_id["id"] = Json(1e300);
    Json negative_id = body;
    negative_id["id"] = Json(-1);
    const struct
    {
        std::string payload;
        std::string error;
    } hostile[] = {
        {R"({"image":{"rows":4294967296,"cols":4294967296,"data":[]}})",
         "data length"},
        {R"({"image":{"rows":-1,"cols":-1,"data":[0.5]}})", "rows and cols"},
        {R"({"image":{"rows":0.5,"cols":2,"data":[0.5]}})", "rows and cols"},
        {overflow.dump(), "non-finite logits"},
        {R"({"sample":{"dataset":"digits","seed":1,"index":200000}})",
         "sample index"},
        {R"({"sample":{"dataset":"digits","seed":1,"index":1e300}})",
         "sample index"},
        {R"({"sample":{"dataset":"digits","seed":1,"index":-1}})",
         "sample index"},
        {huge_id.dump(), "request id"},
        {negative_id.dump(), "request id"},
        {R"({"sample":{"dataset":"digits","seed":1e300}})", "sample seed"},
        {R"({"sample":{"dataset":"digits","seed":-1}})", "sample seed"},
    };
    for (const auto &[payload, error] : hostile) {
        SCOPED_TRACE(payload.substr(0, 80));
        const auto sent = std::chrono::steady_clock::now();
        const HttpResponse rejected = client.request(
            "POST", "/v1/models/digits/infer", payload);
        EXPECT_LT(std::chrono::steady_clock::now() - sent,
                  std::chrono::seconds(2));
        EXPECT_EQ(rejected.status, 400);
        const Json reply = Json::parse(rejected.body);
        EXPECT_EQ(reply.at("status").asString(), "bad_input");
        EXPECT_NE(reply.at("error").asString().find(error),
                  std::string::npos)
            << reply.at("error").asString();
        const HttpResponse after = client.request(
            "POST", "/v1/models/digits/infer", body.dump());
        EXPECT_EQ(after.status, 200);
    }

    const HttpResponse wrong_method =
        client.request("GET", "/v1/models/digits/infer");
    EXPECT_EQ(wrong_method.status, 405);

    const HttpResponse no_route = client.request("GET", "/nope");
    EXPECT_EQ(no_route.status, 404);

    Json expired;
    expired["image"] = imageJson(frame);
    expired["deadline_ms"] = Json(-1.0);
    const HttpResponse late = client.request(
        "POST", "/v1/models/digits/infer", expired.dump());
    EXPECT_EQ(late.status, 504);
    EXPECT_EQ(Json::parse(late.body).at("status").asString(),
              "deadline_exceeded");
}

TEST(HttpServer, AdmissionShedsAs503WithRetryAfter)
{
    ServerFixture fx;
    fx.engine.setModelQuota("digits", 1);
    fx.engine.pause(); // the first request parks in the queue
    const RealMap frame = makeSynthDigits(1, 3).images[0];
    Json body;
    body["image"] = imageJson(frame);
    const std::string payload = body.dump();

    HttpResponse first_response;
    std::thread first([&] {
        HttpClient client("127.0.0.1", fx.server.port());
        first_response = client.request(
            "POST", "/v1/models/digits/infer", payload);
    });
    // Wait until the parked request occupies the quota.
    for (int i = 0; i < 2000 && fx.engine.metrics().queueDepth() < 1;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(fx.engine.metrics().queueDepth(), 1);

    HttpClient client("127.0.0.1", fx.server.port());
    const HttpResponse shed = client.request(
        "POST", "/v1/models/digits/infer", payload);
    EXPECT_EQ(shed.status, 503);
    ASSERT_TRUE(shed.headers.count("retry-after"));
    EXPECT_EQ(shed.headers.at("retry-after"), "1");
    EXPECT_EQ(Json::parse(shed.body).at("status").asString(),
              "overloaded");

    fx.engine.resume();
    first.join();
    EXPECT_EQ(first_response.status, 200);
}

TEST(HttpServer, PipelinedRequestsAnswerInOrder)
{
    ServerFixture fx;
    const std::string wire =
        "GET /healthz HTTP/1.1\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    const std::string reply = fx.rawExchange(wire);
    std::size_t responses = 0;
    for (std::size_t at = reply.find("HTTP/1.1 200");
         at != std::string::npos;
         at = reply.find("HTTP/1.1 200", at + 1))
        ++responses;
    EXPECT_EQ(responses, 2u);
    EXPECT_NE(reply.find("Connection: close"), std::string::npos);
}

TEST(HttpServer, MalformedAndOversizedRequestsCloseCleanly)
{
    HttpServerConfig http;
    http.limits.max_body = 1024;
    ServerFixture fx({}, http);

    const std::string malformed =
        fx.rawExchange("THIS IS NOT HTTP AT ALL\r\n\r\n");
    EXPECT_NE(malformed.find("HTTP/1.1 400"), std::string::npos);
    EXPECT_NE(malformed.find("Connection: close"), std::string::npos);

    const std::string oversized = fx.rawExchange(
        "POST /v1/models/digits/infer HTTP/1.1\r\n"
        "Content-Length: 2048\r\n\r\n");
    EXPECT_NE(oversized.find("HTTP/1.1 413"), std::string::npos);

    const std::string chunked = fx.rawExchange(
        "POST /v1/models/digits/infer HTTP/1.1\r\n"
        "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
    EXPECT_NE(chunked.find("HTTP/1.1 501"), std::string::npos);

    EXPECT_EQ(fx.server.transportStats().parse_errors, 3u);
}

TEST(HttpServer, StopIsCleanAndIdempotent)
{
    ServerFixture fx;
    {
        HttpClient client("127.0.0.1", fx.server.port());
        EXPECT_EQ(client.request("GET", "/healthz").status, 200);
    }
    EXPECT_TRUE(fx.server.running());
    fx.server.stop();
    EXPECT_FALSE(fx.server.running());
    fx.server.stop(); // idempotent
    EXPECT_THROW(
        HttpClient("127.0.0.1", fx.server.port()).request("GET", "/"),
        std::runtime_error);
}

} // namespace
} // namespace lightridge
