// The one Kirsch–Mitzenmacher probe sequence shared by every filter.
//
// Both Bloom filters in the system (BloomFilter, CountingBloomFilter) and
// the query-side fast path (hashed_query.hpp) derive their k probe
// positions from the same double-hashing scheme:
//
//   h1 = mix(key),  h2 = mix(key ^ golden) | 1
//   pos_i = ((h1 + i*h2) mod 2^64) mod m          for i in [0, k)
//
// The "mod 2^64" is load-bearing: the historical implementations let the
// 64-bit accumulator wrap naturally, and every committed run digest and
// golden metric depends on the resulting positions. Any replacement must
// reproduce them bit-for-bit.
//
// for_each_position() does, divisionlessly: it reduces h1 and h2 mod m
// once (two divisions per key instead of one per probe), then steps the
// reduced residue with add-and-conditional-subtract. A 64-bit shadow
// accumulator detects the rare mod-2^64 wrap, which is folded in as a
// precomputed additive correction — see the identity argument below and
// DESIGN.md §10.
//
// Identity argument. Let r_i = pos_i, r2 = h2 mod m, w = 2^64 mod m.
//   * No wrap at step i:   v_{i+1} = v_i + h2, so
//     r_{i+1} = (r_i + r2) mod m — one add, one conditional subtract.
//   * Wrap at step i:      v_{i+1} = v_i + h2 - 2^64, so
//     r_{i+1} = (r_i + r2 - w) mod m = (r_i + r2 + (m - w)) mod m.
//     Both operands of each add are < m, so two conditional subtracts
//     restore the invariant r < m. The wrap test (accumulator decreased
//     after the add) is exact because 0 < h2 < 2^64.
// Hence every emitted position equals the canonical formula's.
#pragma once

#include <cstdint>
#include <type_traits>

namespace asap::bloom::probe {

/// SplitMix64-style finalizer; good avalanche for sequential keyword ids.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The Kirsch–Mitzenmacher hash pair for one key. h2 is forced odd so the
/// probe stride never collapses to zero.
struct KMHash {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 1;
};

constexpr KMHash km_hash(std::uint64_t key) {
  return {mix64(key), mix64(key ^ 0x9E3779B97F4A7C15ULL) | 1ULL};
}

/// Calls fn(pos) for each of the k probe positions of `key` in an m-bit
/// filter, bit-identical to the canonical ((h1 + i*h2) mod 2^64) mod m
/// sequence (see file comment). Requires m >= 1, k >= 1. `fn` may return
/// void (all k positions are visited) or bool (returning false stops the
/// walk early — the membership-test exit). Returns false iff stopped.
template <typename Fn>
inline bool for_each_position(std::uint64_t key, std::uint32_t m,
                              std::uint32_t k, Fn&& fn) {
  const KMHash h = km_hash(key);
  const std::uint64_t bits = m;
  std::uint64_t r = h.h1 % bits;
  const std::uint64_t r2 = h.h2 % bits;
  // 2^64 mod m without 128-bit arithmetic; wrap_fix = (m - 2^64 mod m) mod m.
  const std::uint64_t w = (~0ULL % bits + 1) % bits;
  const std::uint64_t wrap_fix = (bits - w) % bits;
  std::uint64_t acc = h.h1;
  for (std::uint32_t i = 0;;) {
    if constexpr (std::is_void_v<
                      std::invoke_result_t<Fn&, std::uint32_t>>) {
      fn(static_cast<std::uint32_t>(r));
    } else {
      if (!fn(static_cast<std::uint32_t>(r))) return false;
    }
    if (++i == k) break;
    const std::uint64_t prev = acc;
    acc += h.h2;
    r += r2;
    if (r >= bits) r -= bits;
    if (acc < prev) {  // the 64-bit accumulator wrapped past 2^64
      r += wrap_fix;
      if (r >= bits) r -= bits;
    }
  }
  return true;
}

/// Reference implementation of the same sequence with a `%` per probe.
/// Kept as the oracle for the identity tests and the ASAP_AUDIT
/// cross-checks; not used on any hot path.
template <typename Fn>
inline void for_each_position_reference(std::uint64_t key, std::uint32_t m,
                                        std::uint32_t k, Fn&& fn) {
  const KMHash kmh = km_hash(key);
  std::uint64_t h = kmh.h1;
  for (std::uint32_t i = 0; i < k; ++i) {
    fn(static_cast<std::uint32_t>(h % m));
    h += kmh.h2;
  }
}

}  // namespace asap::bloom::probe
