// Minimal JSON document model, writer and parser.
//
// Used by the experiment-matrix runner for `results.json` and by the
// golden-metrics regression gate, which re-parses a committed results
// file; carrying our own ~300-line implementation keeps the toolchain
// dependency-free. Scope is deliberately small:
//
//   * Objects preserve insertion order (diffs against committed files stay
//     stable) and are stored as flat vectors — fine for the dozens of keys
//     a results file holds.
//   * Numbers are doubles. 64-bit quantities that must round-trip exactly
//     (digests, seeds) are serialized as "0x..." hex strings; u64_hex()
//     converts back.
//   * The writer emits shortest-round-trip doubles via std::to_chars, so
//     dump(parse(s)) is byte-stable for machine-generated files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace asap::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object; duplicate keys are not rejected but find()
/// returns the first.
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(unsigned i) : v_(static_cast<double>(i)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw ConfigError when the type does not match.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Object member access; throws ConfigError when absent.
  const Value& at(std::string_view key) const;

  /// Parses a "0x..." hex string member back into a uint64 (see file
  /// comment); throws ConfigError on malformed input.
  std::uint64_t u64_hex() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Formats a uint64 as the "0x..." string form u64_hex() accepts.
std::string hex_u64(std::uint64_t v);

/// Serializes with 2-space indentation and a trailing newline at top level.
std::string dump(const Value& v);

/// Serializes onto a single line with no whitespace and no trailing
/// newline — the JSONL form the trace sink emits one record per line.
std::string dump_compact(const Value& v);

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per container, so an unbounded depth lets a hostile file overflow the
/// stack; committed files nest at most 5 deep.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses a complete JSON document; throws ConfigError with position info
/// on malformed input, trailing garbage, or nesting deeper than kMaxDepth.
Value parse(std::string_view text);

}  // namespace asap::json
