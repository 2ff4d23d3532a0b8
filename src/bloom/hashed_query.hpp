// Query-side probe fast path: hash each query term exactly once.
//
// ASAP turns a network search into a local ads-cache scan, so the same
// query terms are tested against many cached filters — at every node a
// flooded or walked query visits. The legacy path re-derived the
// Kirsch–Mitzenmacher hash pair and paid a `%` per probe for every
// (term, filter) pair. A HashedQuery is built once at query-origin time:
// it precomputes each term's k bit positions (probe.hpp, divisionless and
// bit-identical to the legacy sequence), after which every per-node,
// per-entry membership test is pure word-index/bit-mask tests.
//
// Each HashedKey also carries a 64-bit fold mask (OR of 1 << (pos & 63)
// over its positions). Because an m-bit filter folds to 64 bits by OR-ing
// its words — bit j of the fold is the OR of all filter bits at positions
// ≡ j (mod 64) — "term present in filter" implies "term fold mask covered
// by filter fold". AdCache keeps that 8-byte fold per entry as a prefilter
// so most non-matching entries are rejected without touching their ~1.4 KB
// filters (ad_cache.hpp).
//
// Precondition: positions are only meaningful against filters built with
// the same BloomParams. The system shares one fixed-length filter geometry
// (paper §III-B), so this holds everywhere; matches() still verifies and
// falls back to the legacy scan on a mismatch, keeping the wide contract.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bloom/bloom.hpp"
#include "common/types.hpp"

namespace asap::bloom {

/// One key's precomputed probe state: the k bit positions and the 64-bit
/// fold mask. Fixed-capacity (BloomParams caps k at 32) so HashedQuery
/// construction never allocates per term.
class HashedKey {
 public:
  static constexpr std::uint32_t kMaxHashes = 32;

  HashedKey() = default;
  HashedKey(std::uint64_t key, const BloomParams& params);

  std::uint64_t key() const { return key_; }
  std::span<const std::uint32_t> positions() const {
    return {pos_.data(), count_};
  }
  /// OR of 1 << (pos & 63) over the key's positions (prefilter probe).
  std::uint64_t fold_mask() const { return fold_mask_; }

  /// True iff every probe bit is set in the given filter bitmap. Pure
  /// bit tests — no hashing, no division.
  bool present_in(std::span<const std::uint64_t> words) const {
    for (std::uint32_t i = 0; i < count_; ++i) {
      const std::uint32_t pos = pos_[i];
      if ((words[pos >> 6] & (1ULL << (pos & 63))) == 0) return false;
    }
    return true;
  }

 private:
  std::uint64_t key_ = 0;
  std::uint64_t fold_mask_ = 0;
  std::uint32_t count_ = 0;
  std::array<std::uint32_t, kMaxHashes> pos_{};
};

/// All of a query's terms, hashed once. Built at query-origin time and
/// reused at every node the query propagation visits (search::Ctx keeps a
/// reusable instance so steady-state queries allocate nothing).
class HashedQuery {
 public:
  HashedQuery() = default;
  HashedQuery(std::span<const KeywordId> terms, const BloomParams& params) {
    assign(terms, params);
  }

  /// Rebuilds in place for a new term set, reusing capacity.
  void assign(std::span<const KeywordId> terms, const BloomParams& params);

  bool empty() const { return terms_.empty(); }
  std::size_t size() const { return terms_.size(); }
  const BloomParams& params() const { return params_; }
  /// Original query terms, in trace order.
  std::span<const KeywordId> terms() const { return terms_; }
  /// Hashed probe state, index-aligned with terms().
  std::span<const HashedKey> keys() const { return keys_; }
  /// OR of every term's fold mask: a filter fold lacking any of these
  /// bits cannot contain all terms.
  std::uint64_t fold_mask_all() const { return fold_all_; }

  /// True iff the filter claims every term (the paper's ad match test).
  /// Vacuously true for an empty query, like BloomFilter::contains_all.
  /// Falls back to the legacy hash-per-term scan if the filter's geometry
  /// differs from the one this query was hashed for.
  ///
  /// Tests each key's present_in() in `order` (indices into keys(), e.g.
  /// AdCache's rarest-first order) when one is given, else in term order.
  /// The order only changes how fast a non-match exits, never the answer.
  bool matches(const BloomFilter& f,
               std::span<const std::uint8_t> order = {}) const {
    if (f.params() != params_) return f.contains_all(terms_);
    const auto words = f.words();
    if (order.empty()) {
      for (const HashedKey& k : keys_) {
        if (!k.present_in(words)) return false;
      }
      return true;
    }
    for (const std::uint8_t t : order) {
      if (!keys_[t].present_in(words)) return false;
    }
    return true;
  }

 private:
  std::vector<KeywordId> terms_;
  std::vector<HashedKey> keys_;
  std::uint64_t fold_all_ = 0;
  BloomParams params_;
};

}  // namespace asap::bloom
