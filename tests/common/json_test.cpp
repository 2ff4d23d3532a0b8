#include "common/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"

namespace asap::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(parse("-17").as_double(), -17.0);
  EXPECT_DOUBLE_EQ(parse("6.02e23").as_double(), 6.02e23);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainers) {
  const Value v = parse(R"({"a": [1, 2, 3], "b": {"c": true}, "d": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_double(), 2.0);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("d").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), ConfigError);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xC3\xA9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), ConfigError);
  EXPECT_THROW(parse("{"), ConfigError);
  EXPECT_THROW(parse("[1,]"), ConfigError);
  EXPECT_THROW(parse("nul"), ConfigError);
  EXPECT_THROW(parse("1 2"), ConfigError);
  EXPECT_THROW(parse("\"unterminated"), ConfigError);
  EXPECT_THROW(parse("{\"a\" 1}"), ConfigError);
  EXPECT_THROW(parse("+5"), ConfigError);
  // Hostile nesting must fail cleanly, not overflow the parser's stack.
  EXPECT_THROW(parse(std::string(100'000, '[')), ConfigError);
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse(objects), ConfigError);
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const Value at_cap = parse(nested(kMaxDepth));
  const Value* v = &at_cap;
  for (std::size_t d = 1; d < kMaxDepth; ++d) {
    ASSERT_EQ(v->as_array().size(), 1u);
    v = &v->as_array()[0];
  }
  EXPECT_TRUE(v->as_array().empty());
  EXPECT_THROW(parse(nested(kMaxDepth + 1)), ConfigError);
  // Objects count toward the same cap.
  std::string obj;
  for (std::size_t d = 0; d < kMaxDepth; ++d) obj += "{\"a\":";
  obj += "1" + std::string(kMaxDepth, '}');
  EXPECT_NO_THROW(parse(obj));
  EXPECT_THROW(parse("[" + obj + "]"), ConfigError);
}

TEST(Json, TypedAccessorsCheckTypes) {
  EXPECT_THROW(parse("3").as_string(), ConfigError);
  EXPECT_THROW(parse("\"x\"").as_double(), ConfigError);
  EXPECT_THROW(parse("[]").as_object(), ConfigError);
}

TEST(Json, HexU64RoundTripsExactly) {
  // Values above 2^53 cannot survive a double; the hex-string convention
  // must round-trip every 64-bit pattern bit-exactly.
  for (const std::uint64_t v :
       {0ULL, 1ULL, 0x4851003f0d1a6c24ULL, ~0ULL, 1ULL << 63}) {
    EXPECT_EQ(parse(dump(Value(hex_u64(v)))).u64_hex(), v);
  }
  EXPECT_THROW(parse("\"42\"").u64_hex(), ConfigError);
  EXPECT_THROW(parse("\"0xZZ\"").u64_hex(), ConfigError);
  EXPECT_THROW(parse("\"0x\"").u64_hex(), ConfigError);
}

TEST(Json, DumpParsesBackIdentically) {
  Object inner;
  inner.emplace_back("pi", 3.141592653589793);
  inner.emplace_back("neg", -0.25);
  Object root;
  root.emplace_back("name", "asap \"matrix\"\n");
  root.emplace_back("flags", Array{Value(true), Value(false), Value(nullptr)});
  root.emplace_back("nested", Value(std::move(inner)));
  root.emplace_back("empty_arr", Array{});
  root.emplace_back("empty_obj", Object{});
  const Value original{std::move(root)};

  const std::string text = dump(original);
  const Value reparsed = parse(text);
  // Shortest-round-trip doubles make a second dump byte-identical.
  EXPECT_EQ(dump(reparsed), text);
  EXPECT_DOUBLE_EQ(reparsed.at("nested").at("pi").as_double(),
                   3.141592653589793);
  EXPECT_EQ(reparsed.at("name").as_string(), "asap \"matrix\"\n");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(dump(Value(std::numeric_limits<double>::infinity())), "null\n");
}

TEST(Json, DumpCompactIsSingleLineAndReparses) {
  Object inner;
  inner.emplace_back("pi", 3.141592653589793);
  Object root;
  root.emplace_back("type", "query");
  root.emplace_back("ok", true);
  root.emplace_back("xs", Array{Value(1.0), Value(2.0)});
  root.emplace_back("nested", Value(std::move(inner)));
  const Value original{std::move(root)};

  const std::string text = dump_compact(original);
  // JSONL-ready: one line, no trailing newline, no formatting whitespace.
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(text.find("  "), std::string::npos);
  EXPECT_EQ(text,
            R"({"type":"query","ok":true,"xs":[1,2],)"
            R"("nested":{"pi":3.141592653589793}})");
  const Value reparsed = parse(text);
  EXPECT_EQ(reparsed.at("type").as_string(), "query");
  EXPECT_DOUBLE_EQ(reparsed.at("nested").at("pi").as_double(),
                   3.141592653589793);
}

}  // namespace
}  // namespace asap::json
