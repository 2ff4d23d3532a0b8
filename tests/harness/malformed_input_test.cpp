// Malformed-input corpus for common/json and the results-spec reader.
//
// Every committed tests/support/*.json is a results file that
// harness::spec_from_json reads back. This suite makes deterministic
// mutants of each one (truncations, byte flips, deleted spans, and scalar
// tokens replaced by out-of-range or mistyped values) and feeds them
// through json::parse and spec_from_json. Each mutant must either read
// cleanly or be rejected with ConfigError: any other exception fails the
// test, and under the sanitizer build any out-of-bounds read, overflow or
// undefined conversion aborts it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "harness/matrix_runner.hpp"

namespace asap::harness {
namespace {

struct SupportFile {
  std::string name;
  std::string text;
};

/// Every committed support JSON file, in name order.
std::vector<SupportFile> support_files() {
  std::vector<SupportFile> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(ASAP_TEST_SUPPORT_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back({entry.path().filename().string(), buf.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const SupportFile& a, const SupportFile& b) {
              return a.name < b.name;
            });
  return out;
}

/// Tallies how the mutants of one test were received.
struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;

  /// Parses `text` and reads it as a matrix spec. A ConfigError counts as
  /// a clean rejection; any other exception is a test failure naming the
  /// mutant.
  void feed(std::string_view text, const std::string& label) {
    try {
      (void)spec_from_json(json::parse(text));
      ++accepted;
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": non-ConfigError exception: " << e.what();
    }
  }
};

/// Byte range of the spec in a results file: the writer emits it before
/// the "cells" array, so mutants aimed there reach spec_from_json's
/// checks rather than stopping in the parser.
std::size_t spec_end(const std::string& text) {
  const std::size_t cells = text.find("\"cells\"");
  return cells == std::string::npos ? text.size() : cells;
}

struct Token {
  std::size_t pos;
  std::size_t len;
};

/// Scalar tokens of a JSON text: strings (object keys included), numbers
/// and the literals true, false and null.
std::vector<Token> scalar_tokens(const std::string& s) {
  const auto ch = [&s](std::size_t k) {
    return k < s.size() ? static_cast<unsigned char>(s[k]) : '\0';
  };
  const auto numeric = [](unsigned char c) {
    return std::isdigit(c) || c == '+' || c == '-' || c == '.' || c == 'e' ||
           c == 'E';
  };
  std::vector<Token> out;
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = ch(i);
    std::size_t j = i + 1;
    if (c == '"') {
      while (j < s.size() && s[j] != '"') j += s[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, s.size());
    } else if (c == '-' || std::isdigit(c)) {
      while (numeric(ch(j))) ++j;
    } else if (std::isalpha(c)) {
      while (std::isalpha(ch(j))) ++j;
    } else {
      ++i;
      continue;
    }
    out.push_back({i, j - i});
    i = j;
  }
  return out;
}

/// Out-of-range and mistyped stand-ins for a scalar token.
constexpr std::string_view kReplacements[] = {
    "-1", "1e999", "4294967296", "0.5", "null", "[]", "\"0xZZ\""};

TEST(MalformedInput, CommittedFilesReadAsSpecs) {
  const auto files = support_files();
  ASSERT_GE(files.size(), 4u) << "support files missing";
  for (const auto& f : files) {
    EXPECT_NO_THROW((void)spec_from_json(json::parse(f.text))) << f.name;
  }
}

TEST(MalformedInput, StructuralMutantsReadOrThrowConfigError) {
  Tally tally;
  Rng rng(0x5EC7);
  for (const auto& f : support_files()) {
    const std::string& text = f.text;
    const std::size_t spec = spec_end(text);
    // Half the cut points land in the spec, half anywhere.
    const auto position = [&](int i) {
      return static_cast<std::size_t>(
          rng.below(i % 2 == 0 ? spec : text.size()));
    };
    for (int i = 0; i < 64; ++i) {
      const std::size_t at = position(i);
      tally.feed(std::string_view(text).substr(0, at),
                 f.name + " truncated at " + std::to_string(at));
    }
    for (int i = 0; i < 128; ++i) {
      std::string m = text;
      const std::size_t at = position(i);
      m[at] = static_cast<char>(m[at] ^ (1 + rng.below(255)));
      tally.feed(m, f.name + " byte flipped at " + std::to_string(at));
    }
    for (int i = 0; i < 64; ++i) {
      std::string m = text;
      const std::size_t at = position(i);
      m.erase(at, 1 + rng.below(64));
      tally.feed(m, f.name + " span deleted at " + std::to_string(at));
    }
  }
  EXPECT_GT(tally.accepted, 0u) << "no mutant survived: corpus too blunt";
  EXPECT_GT(tally.rejected, 0u);
}

TEST(MalformedInput, TokenReplacementsReadOrThrowConfigError) {
  // Every scalar token of the spec gets every replacement. One token in
  // twenty past the spec (cells, trial runs) gets one: the reader never
  // looks there, so only the parser sees those.
  Tally tally;
  Rng rng(0x70CE);
  for (const auto& f : support_files()) {
    const std::string& text = f.text;
    const auto replace = [&](const Token& tok, std::string_view r) {
      std::string m = text;
      m.replace(tok.pos, tok.len, r);
      tally.feed(m, f.name + " token " + text.substr(tok.pos, tok.len) +
                        " at " + std::to_string(tok.pos) + " -> " +
                        std::string(r));
    };
    const std::size_t spec = spec_end(text);
    for (const Token& tok : scalar_tokens(text)) {
      if (tok.pos < spec) {
        for (const std::string_view r : kReplacements) replace(tok, r);
      } else if (rng.chance(0.05)) {
        replace(tok, kReplacements[rng.below(std::size(kReplacements))]);
      }
    }
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
}  // namespace asap::harness
