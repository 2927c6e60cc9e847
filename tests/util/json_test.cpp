#include "mcsim/util/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mcsim::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  JsonValue v;
  EXPECT_TRUE(v.isNull());
  EXPECT_FALSE(v.isObject());
}

TEST(JsonValue, ConvenienceConstructors) {
  EXPECT_TRUE(JsonValue(nullptr).isNull());
  EXPECT_TRUE(JsonValue(true).isBool());
  EXPECT_TRUE(JsonValue(3.5).isNumber());
  EXPECT_TRUE(JsonValue(7).isNumber());
  EXPECT_TRUE(JsonValue(std::uint64_t{1} << 40).isNumber());
  EXPECT_TRUE(JsonValue("text").isString());
  EXPECT_TRUE(JsonValue(std::string("text")).isString());
  EXPECT_TRUE(JsonValue(JsonArray{}).isArray());
  EXPECT_TRUE(JsonValue(JsonObject{}).isObject());
}

TEST(JsonParse, RoundTripsEveryAlternative) {
  const std::string text =
      R"({"arr":[1,2.5,-3],"bool":true,"nested":{"deep":null},)"
      R"("num":42,"str":"hi \"quoted\" \\ line\n"})";
  const JsonValue v = parseJson(text);
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.at("num").asNumber(), 42.0);
  EXPECT_TRUE(v.at("bool").asBool());
  EXPECT_TRUE(v.at("nested").at("deep").isNull());
  ASSERT_EQ(v.at("arr").asArray().size(), 3u);
  EXPECT_EQ(v.at("arr").asArray()[1].asNumber(), 2.5);
  EXPECT_EQ(v.at("str").asString(), "hi \"quoted\" \\ line\n");
  // Deterministic writer: std::map key order, jsonl-compatible escaping.
  EXPECT_EQ(dumpJson(v), text);
}

TEST(JsonParse, NullLiteralParsesToNullValue) {
  const JsonValue v = parseJson(R"({"task":null})");
  EXPECT_TRUE(v.at("task").isNull());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parseJson(""), std::runtime_error);
  EXPECT_THROW(parseJson("{"), std::runtime_error);
  EXPECT_THROW(parseJson("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parseJson("[1,2,]"), std::runtime_error);
  EXPECT_THROW(parseJson("nul"), std::runtime_error);
  EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
}

TEST(JsonParse, NestingDepthIsBounded) {
  // 512 levels parse; one more, or a hostile 10^5, is a parse error rather
  // than a stack overflow.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parseJson(nested(512)));
  EXPECT_THROW(parseJson(nested(513)), std::runtime_error);
  EXPECT_THROW(parseJson(std::string(100000, '[')), std::runtime_error);
  EXPECT_THROW(parseJson(std::string(100000, '{')), std::runtime_error);
}

TEST(JsonValue, AccessorsEnforceTypes) {
  const JsonValue v = parseJson(R"({"n":1})");
  EXPECT_THROW(v.at("missing"), std::runtime_error);
  EXPECT_THROW(v.at("n").asString(), std::bad_variant_access);
  EXPECT_FALSE(v.has("missing"));
  EXPECT_TRUE(v.has("n"));
}

TEST(JsonWrite, NumbersUseJsonlPrecision) {
  // Matches obs/jsonl.cpp's %.12g contract so server results diff cleanly
  // against telemetry artifacts.
  JsonObject o;
  o["v"] = 10302.7681234;  // 12 significant digits survive exactly
  EXPECT_EQ(dumpJson(JsonValue(o)), R"({"v":10302.7681234})");
  o["v"] = 1e21;
  EXPECT_EQ(dumpJson(JsonValue(o)), R"({"v":1e+21})");
}

TEST(JsonParse, UnicodeEscapes) {
  const JsonValue v = parseJson(R"(["Aé"])");
  EXPECT_EQ(v.asArray()[0].asString(), "A\xc3\xa9");
}

}  // namespace
}  // namespace mcsim::json
