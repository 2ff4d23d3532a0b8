#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace asap::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw ConfigError(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(v_);
}

double Value::as_double() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(v_);
}

Array& Value::as_array() {
  if (!is_array()) type_error("an array");
  return std::get<Array>(v_);
}

Object& Value::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<Object>(v_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw ConfigError("json: missing member \"" + std::string(key) + '"');
  }
  return *v;
}

std::uint64_t Value::u64_hex() const {
  const std::string& s = as_string();
  if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) {
    throw ConfigError("json: expected \"0x...\" hex string, got \"" + s +
                      '"');
  }
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data() + 2, s.data() + s.size(), out, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("json: malformed hex string \"" + s + '"');
  }
  return out;
}

std::string hex_u64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- writer ---------------------------------------------------------------

namespace {

void write_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  ASAP_CHECK(ec == std::errc{});
  out.append(buf, ptr);
}

void write_value(const Value& v, int depth, std::string& out) {
  const auto indent = [&](int n) { out.append(2 * static_cast<std::size_t>(n), ' '); };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    write_number(v.as_double(), out);
  } else if (v.is_string()) {
    write_string(v.as_string(), out);
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    // Arrays of scalars print on one line; arrays holding containers nest.
    bool flat = true;
    for (const auto& e : a) {
      if (e.is_array() || e.is_object()) flat = false;
    }
    out += '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (flat) {
        if (i > 0) out += ", ";
      } else {
        out += i > 0 ? ",\n" : "\n";
        indent(depth + 1);
      }
      write_value(a[i], depth + 1, out);
    }
    if (!flat) {
      out += '\n';
      indent(depth);
    }
    out += ']';
  } else {
    const Object& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      out += i > 0 ? ",\n" : "\n";
      indent(depth + 1);
      write_string(o[i].first, out);
      out += ": ";
      write_value(o[i].second, depth + 1, out);
    }
    out += '\n';
    indent(depth);
    out += '}';
  }
}

void write_value_compact(const Value& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    write_number(v.as_double(), out);
  } else if (v.is_string()) {
    write_string(v.as_string(), out);
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    out += '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out += ',';
      write_value_compact(a[i], out);
    }
    out += ']';
  } else {
    const Object& o = v.as_object();
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) out += ',';
      write_string(o[i].first, out);
      out += ':';
      write_value_compact(o[i].second, out);
    }
    out += '}';
  }
}

}  // namespace

std::string dump(const Value& v) {
  std::string out;
  write_value(v, 0, out);
  out += '\n';
  return out;
}

std::string dump_compact(const Value& v) {
  std::string out;
  write_value_compact(v, out);
  return out;
}

// --- parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw ConfigError("json: " + msg + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + '\'');
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      ++depth_;
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Value(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Value(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Value(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Value(nullptr);
    }
    return parse_number();
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      fail("malformed number");
    }
    return Value(out);
  }

  void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return out;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            expect('\\');
            expect('u');
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(cp, out);
          break;
        }
        default:
          fail("bad escape");
      }
    }
    return out;
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Value(std::move(out));
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Value(std::move(out));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open around the current value
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace asap::json
