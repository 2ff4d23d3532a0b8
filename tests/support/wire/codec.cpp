#include "wire/codec.hpp"

namespace asap::wire {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::svarint(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  const auto v = static_cast<std::uint16_t>(data_[pos_] |
                                            (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t b = data_[pos_++];
    if (shift == 63 && (b & 0x7E) != 0) {
      throw DecodeError("wire: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw DecodeError("wire: varint too long");
  }
}

std::int64_t Reader::svarint() {
  const std::uint64_t raw = varint();
  return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

std::span<const std::uint8_t> Reader::bytes(std::size_t n) {
  need(n);
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void encode_positions(Writer& w, std::span<const std::uint32_t> sorted) {
  std::uint32_t prev = 0;
  bool first = true;
  for (const std::uint32_t p : sorted) {
    if (first) {
      w.varint(p);
      first = false;
    } else {
      ASAP_REQUIRE(p > prev, "positions must be strictly increasing");
      w.varint(p - prev);
    }
    prev = p;
  }
}

std::vector<std::uint32_t> decode_positions(Reader& r, std::size_t count) {
  // Every encoded position costs at least one byte, so a count that
  // exceeds the bytes left is hostile or corrupt — reject it *before*
  // reserving, or a crafted header could force a huge allocation from a
  // tiny buffer.
  if (count > r.remaining()) {
    throw DecodeError("wire: position count exceeds remaining bytes");
  }
  std::vector<std::uint32_t> out;
  out.reserve(count);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t delta = r.varint();
    // The delta form makes strictly-increasing the only canonical
    // encoding; a zero delta after the first entry is a duplicate
    // position, which would toggle the same filter bit back OFF when a
    // patch is applied — a pollution-laundering vector, not a valid ad.
    if (i > 0 && delta == 0) {
      throw DecodeError("wire: duplicate position (zero delta)");
    }
    acc = i == 0 ? delta : acc + delta;
    if (acc > 0xFFFFFFFFULL) {
      throw DecodeError("wire: position overflows 32 bits");
    }
    out.push_back(static_cast<std::uint32_t>(acc));
  }
  return out;
}

}  // namespace asap::wire
