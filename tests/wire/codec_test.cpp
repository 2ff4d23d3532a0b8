#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace asap::wire {
namespace {

TEST(Codec, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.done());
}

TEST(Codec, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {
      0,    1,    127,        128,        16'383, 16'384,
      1ULL << 32, (1ULL << 63), ~0ULL};
  Writer w;
  for (auto v : values) w.varint(v);
  Reader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Codec, VarintSizes) {
  auto size_of = [](std::uint64_t v) {
    Writer w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(16'383), 2u);
  EXPECT_EQ(size_of(~0ULL), 10u);
}

TEST(Codec, SignedVarintRoundTrip) {
  const std::int64_t values[] = {0, -1, 1, -64, 64, -1'000'000, 1'000'000,
                                 INT64_MIN, INT64_MAX};
  Writer w;
  for (auto v : values) w.svarint(v);
  Reader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.u32(42);
  Reader r(std::span<const std::uint8_t>(w.buffer().data(), 2));
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Codec, MalformedVarintThrows) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  std::vector<std::uint8_t> bad(11, 0x80);
  Reader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
  // Truncated varint (continuation bit set, no next byte).
  std::vector<std::uint8_t> trunc{0x80};
  Reader r2(trunc);
  EXPECT_THROW(r2.varint(), DecodeError);
}

TEST(Codec, PositionListRoundTrip) {
  const std::vector<std::uint32_t> positions{0, 1, 5, 100, 10'000, 65'535};
  Writer w;
  encode_positions(w, positions);
  Reader r(w.buffer());
  EXPECT_EQ(decode_positions(r, positions.size()), positions);
}

TEST(Codec, PositionListDeltaCompresses) {
  // Dense consecutive positions: 1 byte for the first + 1 byte per delta.
  std::vector<std::uint32_t> dense;
  for (std::uint32_t i = 100; i < 1'100; ++i) dense.push_back(i);
  Writer w;
  encode_positions(w, dense);
  EXPECT_LE(w.size(), 2u + dense.size());
  EXPECT_LT(w.size(), dense.size() * 2)
      << "deltas must beat the 2-bytes-per-position estimate";
}

TEST(Codec, UnsortedPositionsRejected) {
  const std::vector<std::uint32_t> bad{5, 3};
  Writer w;
  EXPECT_THROW(encode_positions(w, bad), ConfigError);
  const std::vector<std::uint32_t> dup{5, 5};
  Writer w2;
  EXPECT_THROW(encode_positions(w2, dup), ConfigError);
}

TEST(Codec, RandomPositionListsRoundTrip) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const auto count = 1 + rng.below(500);
    auto raw = rng.sample_indices(100'000, static_cast<std::uint32_t>(count));
    std::sort(raw.begin(), raw.end());
    Writer w;
    encode_positions(w, raw);
    Reader r(w.buffer());
    EXPECT_EQ(decode_positions(r, raw.size()), raw);
  }
}

}  // namespace
}  // namespace asap::wire
