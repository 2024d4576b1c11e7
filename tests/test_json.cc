/**
 * @file
 * Tests for jsonQuote (serve/json.hh), the string escape of every JSON
 * report tacsim writes: exact output for the characters JSON requires
 * escaped, and passthrough for everything else.
 */

#include <gtest/gtest.h>

#include <string>

#include "serve/json.hh"

namespace tacsim {
namespace serve {
namespace {

TEST(Json, QuoteEscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonQuote(""), R"("")");
    EXPECT_EQ(jsonQuote("a\"b\\c"), R"("a\"b\\c")");
    EXPECT_EQ(jsonQuote("\b\f\n\r\t"), R"("\b\f\n\r\t")");
    EXPECT_EQ(jsonQuote(std::string("\x01 \x1f", 3)),
              R"("\u0001 \u001f")");
    // UTF-8 (here "é→") and DEL are not escaped.
    EXPECT_EQ(jsonQuote("\xc3\xa9\xe2\x86\x92\x7f"),
              "\"\xc3\xa9\xe2\x86\x92\x7f\"");
}

} // namespace
} // namespace serve
} // namespace tacsim
