// SPDX-License-Identifier: Apache-2.0
#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace mp3d {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1U);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  add a0,   a1 \t a2 ");
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "add");
  EXPECT_EQ(parts[1], "a0,");
  EXPECT_EQ(parts[2], "a1");
  EXPECT_EQ(parts[3], "a2");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("p.mac", "p."));
  EXPECT_FALSE(starts_with("mac", "p."));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AdD X0"), "add x0"); }

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strfmt("%.2f", 1.005), "1.00");
}

TEST(Strings, ParseIntDecimal) {
  long long v = 0;
  EXPECT_TRUE(parse_int("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_int("-45", v));
  EXPECT_EQ(v, -45);
  EXPECT_TRUE(parse_int("+7", v));
  EXPECT_EQ(v, 7);
}

TEST(Strings, ParseIntHexBin) {
  long long v = 0;
  EXPECT_TRUE(parse_int("0x1F", v));
  EXPECT_EQ(v, 31);
  EXPECT_TRUE(parse_int("0b101", v));
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(parse_int("-0x10", v));
  EXPECT_EQ(v, -16);
}

TEST(Strings, ParseIntRejectsGarbage) {
  long long v = 0;
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("12x", v));
  EXPECT_FALSE(parse_int("0x", v));
  EXPECT_FALSE(parse_int("-", v));
  EXPECT_FALSE(parse_int("abc", v));
}

TEST(Strings, ParseIntDigitSeparator) {
  long long v = 0;
  EXPECT_TRUE(parse_int("1_000_000", v));
  EXPECT_EQ(v, 1000000);
}

}  // namespace
}  // namespace mp3d
