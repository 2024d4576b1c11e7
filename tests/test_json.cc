/**
 * @file
 * Tests for the serve-layer JSON reader/writer (serve/json.hh). Result
 * cache entries are parsed back from disk, so the emphasis is on
 * hostile input: deep nesting, trailing garbage, raw control
 * characters, non-integral u64s.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/json.hh"

namespace tacsim {
namespace serve {
namespace {

TEST(Json, ParsesScalarsArraysObjects)
{
    const JsonValue v = parseJson(
        R"({"a": 1, "b": [true, null, "xA"], "c": {"d": 2.5}})");
    EXPECT_EQ(v.at("a").asU64(), 1u);
    EXPECT_TRUE(v.at("b").asArray()[0].asBool());
    EXPECT_TRUE(v.at("b").asArray()[1].isNull());
    EXPECT_EQ(v.at("b").asArray()[2].asString(), "xA");
    EXPECT_EQ(v.at("c").at("d").asNumber(), 2.5);
    EXPECT_TRUE(v.at("missing").isNull());
}

TEST(Json, DumpRoundTripsExactly)
{
    JsonObject o;
    o["pi"] = JsonValue(3.141592653589793);
    o["n"] = JsonValue(static_cast<std::uint64_t>(123456789));
    o["s"] = JsonValue(std::string("quote \" slash \\ ctrl \n"));
    const std::string text = JsonValue(o).dump();
    const JsonValue back = parseJson(text);
    EXPECT_EQ(back.at("pi").asNumber(), 3.141592653589793);
    EXPECT_EQ(back.at("n").asU64(), 123456789u);
    EXPECT_EQ(back.at("s").asString(), o["s"].asString());
    EXPECT_EQ(back.dump(), text); // fixpoint
}

TEST(Json, RejectsHostileInput)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\":1} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\" 1}"), std::runtime_error);
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_THROW(parseJson(deep), std::runtime_error);
    // Raw control characters must be escaped.
    EXPECT_THROW(parseJson("\"a\nb\""), std::runtime_error);
}

TEST(Json, U64RejectsNonIntegers)
{
    EXPECT_THROW(parseJson("2.5").asU64(), std::runtime_error);
    EXPECT_THROW(parseJson("-1").asU64(), std::runtime_error);
    EXPECT_THROW(parseJson("1e300").asU64(), std::runtime_error);
    EXPECT_EQ(parseJson("0").asU64(), 0u);
}

} // namespace
} // namespace serve
} // namespace tacsim
