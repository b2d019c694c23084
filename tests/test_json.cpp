/**
 * @file
 * Minimal JSON implementation tests: parsing, serialization, round trips,
 * error handling.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "utils/json.hpp"

namespace lightridge {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(Json::parse("-1e3").asNumber(), -1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");

    // Edges of the number grammar that stay valid.
    EXPECT_EQ(Json::parse("0").asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(Json::parse("-0").asNumber()));
    EXPECT_EQ(Json::parse("0.5").asNumber(), 0.5);
    EXPECT_EQ(Json::parse("1e5").asNumber(), 1e5);
    EXPECT_EQ(Json::parse("1E+5").asNumber(), 1e5);
    EXPECT_EQ(Json::parse("-1.5e-3").asNumber(), -1.5e-3);
    EXPECT_EQ(Json::parse("4.9406564584124654e-324").asNumber(),
              4.9406564584124654e-324);
}

TEST(Json, ParsesNestedStructures)
{
    Json j = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
    EXPECT_EQ(j.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("a").asArray()[1].asNumber(), 2.0);
    EXPECT_EQ(j.at("a").asArray()[2].at("b").asString(), "c");
    EXPECT_TRUE(j.at("d").at("e").isNull());
}

TEST(Json, ParsesEscapes)
{
    Json j = Json::parse(R"("line\nbreak \"quoted\" A")");
    EXPECT_EQ(j.asString(), "line\nbreak \"quoted\" A");
}

TEST(Json, RoundTripsThroughDump)
{
    Json j;
    j["name"] = Json("lightridge");
    j["size"] = Json(200);
    j["pixel"] = Json(3.6e-5);
    j["flags"] = Json(Json::Array{Json(true), Json(false), Json(nullptr)});
    Json k = Json::parse(j.dump());
    EXPECT_EQ(k.at("name").asString(), "lightridge");
    EXPECT_DOUBLE_EQ(k.at("size").asNumber(), 200);
    EXPECT_DOUBLE_EQ(k.at("pixel").asNumber(), 3.6e-5);
    EXPECT_EQ(k.at("flags").asArray()[0].asBool(), true);
    EXPECT_TRUE(k.at("flags").asArray()[2].isNull());

    // The smallest subnormal survives dump() and parses back exactly.
    const double subnormal = 4.9406564584124654e-324;
    EXPECT_EQ(Json::parse(Json(subnormal).dump()).asNumber(), subnormal);
}

TEST(Json, PreservesDoublePrecision)
{
    double value = 0.1234567890123456;
    Json j(value);
    Json k = Json::parse(j.dump());
    EXPECT_DOUBLE_EQ(k.asNumber(), value);
}

TEST(Json, PrettyOutputParses)
{
    Json j;
    j["outer"]["inner"] = Json(Json::Array{Json(1), Json(2)});
    Json k = Json::parse(j.pretty());
    EXPECT_EQ(k.at("outer").at("inner").asArray().size(), 2u);
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), JsonError);
    EXPECT_THROW(Json::parse("{"), JsonError);
    EXPECT_THROW(Json::parse("[1,]"), JsonError);
    EXPECT_THROW(Json::parse("nul"), JsonError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
    EXPECT_THROW(Json::parse("{}extra"), JsonError);

    // A number token must parse whole ("1-2" is not [1], "1e5e5" is not
    // [100000]), and values outside double range are errors.
    EXPECT_THROW(Json::parse("[1-2]"), JsonError);
    EXPECT_THROW(Json::parse("[1e5e5]"), JsonError);
    EXPECT_THROW(Json::parse("[0.5.5]"), JsonError);
    EXPECT_THROW(Json::parse("[1e999]"), JsonError);
    EXPECT_THROW(Json::parse("[1e-400]"), JsonError);

    // Tokens outside JSON's number grammar: no bare fraction, no leading
    // zero, digits after the point.
    for (const char *bad : {"[.5]", "[-.5]", "[01]", "[00]", "[-01.5]",
                            "[1.]", "[1.e5]"})
        EXPECT_THROW(Json::parse(bad), JsonError) << bad;

    // Nesting is capped at Json::kMaxDepth: hostile depth is a typed
    // error, not a stack overflow, and the limit itself still parses.
    const std::size_t hostile = 200000;
    EXPECT_THROW(Json::parse(std::string(hostile, '[')), JsonError);
    EXPECT_THROW(Json::parse(std::string(hostile, '[') +
                             std::string(hostile, ']')),
                 JsonError);
    std::string deep_object;
    for (std::size_t i = 0; i < hostile; ++i)
        deep_object += "{\"k\":";
    EXPECT_THROW(Json::parse(deep_object), JsonError);

    const std::size_t limit = Json::kMaxDepth;
    const Json arrays =
        Json::parse(std::string(limit, '[') + std::string(limit, ']'));
    EXPECT_TRUE(arrays.isArray());
    EXPECT_THROW(Json::parse(std::string(limit + 1, '[') +
                             std::string(limit + 1, ']')),
                 JsonError);
    std::string objects;
    for (std::size_t i = 0; i < limit; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(limit, '}');
    const Json parsed = Json::parse(objects);
    const Json *cursor = &parsed;
    for (std::size_t i = 0; i < limit; ++i)
        cursor = &cursor->at("k");
    EXPECT_EQ(cursor->asInt(), 1);
}

TEST(Json, TypeMismatchThrows)
{
    Json j = Json::parse("[1]");
    EXPECT_THROW(j.asObject(), JsonError);
    EXPECT_THROW(j.asString(), JsonError);
    EXPECT_THROW(j.at("x"), JsonError);
}

TEST(Json, CheckedIntegerAcceptsOnlyWholeNumbersInRange)
{
    EXPECT_EQ(Json(0).asInteger("n"), 0u);
    EXPECT_EQ(Json(4096).asInteger("n", 0, 4096), 4096u);
    // The largest double below 2^64 is a valid uint64_t; 2^64 is not.
    EXPECT_EQ(Json(18446744073709549568.0).asInteger("n"),
              18446744073709549568ull);
    for (double bad : {-1.0, 0.5, 1e300, 18446744073709551616.0,
                       std::nan(""), HUGE_VAL}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(Json(bad).asInteger("n"), JsonError);
    }
    EXPECT_THROW(Json(4097).asInteger("n", 0, 4096), JsonError);
    EXPECT_THROW(Json(0).asInteger("n", 1), JsonError);
    EXPECT_THROW(Json("7").asInteger("n"), JsonError);
    // A non-number throws naming the field, as an out-of-range number does.
    for (const Json &bad : {Json("8"), Json(true), Json(nullptr),
                            Json(Json::Array{Json(8)}),
                            Json(Json::Object{{"n", Json(8)}})}) {
        SCOPED_TRACE(bad.dump());
        try {
            bad.asInteger("max_batch", 1);
            ADD_FAILURE() << "expected JsonError";
        } catch (const JsonError &e) {
            EXPECT_NE(std::string(e.what()).find("max_batch"),
                      std::string::npos)
                << e.what();
        }
    }
    try {
        Json(-3).asInteger("workers");
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        EXPECT_STREQ(e.what(), "workers must be an integer >= 0, got -3");
    }
}

TEST(Json, MissingKeyThrowsAndNumberOrDefaults)
{
    Json j = Json::parse(R"({"a": 1})");
    EXPECT_THROW(j.at("b"), JsonError);
    EXPECT_DOUBLE_EQ(j.numberOr("a", 9.0), 1.0);
    EXPECT_DOUBLE_EQ(j.numberOr("b", 9.0), 9.0);
    EXPECT_TRUE(j.has("a"));
    EXPECT_FALSE(j.has("b"));
}

TEST(Json, PushPromotesNullToArray)
{
    Json j;
    j.push(Json(1));
    j.push(Json(2));
    EXPECT_EQ(j.asArray().size(), 2u);
}

TEST(Json, SaveLoadRoundTrip)
{
    Json j;
    j["k"] = Json(3.5);
    const std::string path = "/tmp/lr_json_test.json";
    ASSERT_TRUE(j.save(path));
    Json k = Json::load(path);
    EXPECT_DOUBLE_EQ(k.at("k").asNumber(), 3.5);
    std::remove(path.c_str());
}

TEST(Json, LoadMissingFileThrows)
{
    EXPECT_THROW(Json::load("/nonexistent/path.json"), JsonError);
}

} // namespace
} // namespace lightridge
