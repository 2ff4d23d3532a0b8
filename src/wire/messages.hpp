// Concrete wire formats for ASAP protocol messages.
//
// The simulation accounts sizes analytically (sim::SizeModel); this module
// provides the real encodings a deployment would ship, and tests assert
// that the analytic sizes are honest upper bounds of the encoded sizes.
//
// Full ad body: the content filter ships either as the raw bitmap or as a
// delta-varint sparse position list, whichever is smaller (§III-B's
// compressed representation). Patch ads carry the toggled positions; a
// refresh ad is just the header. Delta ads reuse the patch body but the
// base version names the last *full* ad, not the previous version.
//
// Packed ad frame: the adaptive scheduler ships one budget-packed frame
// per ad round instead of one message per ad. A frame is its own magic
// (0xA6) + varint ad count + length-prefixed single-ad encodings, so every
// item round-trips through the unchanged single-ad codec.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "asap/ad.hpp"
#include "bloom/bloom.hpp"
#include "common/codec.hpp"

namespace asap::wire {

struct AdHeader {
  ads::AdKind kind = ads::AdKind::kFull;
  NodeId source = kInvalidNode;
  std::uint32_t version = 0;
  std::vector<TopicId> topics;
};

struct DecodedAd {
  AdHeader header;
  /// Present for full ads.
  std::optional<bloom::BloomFilter> filter;
  /// Present for patch/delta ads: base version + toggled positions. For a
  /// patch the base is the previous version; for a delta it is the last
  /// full ad's version.
  std::uint32_t base_version = 0;
  std::vector<std::uint32_t> toggles;
};

/// Serializes a full ad (header + filter, bitmap or sparse form).
std::vector<std::uint8_t> encode_full_ad(const ads::AdPayload& ad);

/// Serializes a patch ad. `toggles` need not be sorted (they are sorted
/// internally; BloomFilter::diff already emits sorted output).
std::vector<std::uint8_t> encode_patch_ad(
    const ads::AdPayload& ad, std::uint32_t base_version,
    std::span<const std::uint32_t> toggles);

/// Serializes a refresh ad (header only).
std::vector<std::uint8_t> encode_refresh_ad(const ads::AdPayload& ad);

/// Serializes a delta ad (patch body, base = last full ad's version).
std::vector<std::uint8_t> encode_delta_ad(
    const ads::AdPayload& ad, std::uint32_t base_full_version,
    std::span<const std::uint32_t> toggles);

/// Encode-into variants: clear() `w` and write the message into it. A
/// caller encoding a stream of ads keeps one Writer and pays no
/// per-message allocation once its capacity has grown; the by-value
/// functions above are wrappers over these.
void encode_full_ad(const ads::AdPayload& ad, Writer& w);
void encode_patch_ad(const ads::AdPayload& ad, std::uint32_t base_version,
                     std::span<const std::uint32_t> toggles, Writer& w);
void encode_refresh_ad(const ads::AdPayload& ad, Writer& w);
void encode_delta_ad(const ads::AdPayload& ad, std::uint32_t base_full_version,
                     std::span<const std::uint32_t> toggles, Writer& w);

/// Parses any ad message. Throws DecodeError on malformed input.
DecodedAd decode_ad(std::span<const std::uint8_t> data,
                    const bloom::BloomParams& params = bloom::BloomParams{});

/// One item of a packed ad frame. `base_version`/`toggles` are consulted
/// only for patch and delta items.
struct PackedItem {
  ads::AdKind kind = ads::AdKind::kFull;
  const ads::AdPayload* ad = nullptr;
  std::uint32_t base_version = 0;
  std::span<const std::uint32_t> toggles;
};

/// Serializes a byte-budget-packed ad frame (any mix of kinds).
std::vector<std::uint8_t> encode_packed_frame(std::span<const PackedItem> items);
void encode_packed_frame(std::span<const PackedItem> items, Writer& w);

/// Parses a packed frame back into its per-ad decodings, in frame order.
/// Throws DecodeError on malformed input (bad magic, unreasonable counts,
/// truncated or trailing bytes — at frame and item level alike).
std::vector<DecodedAd> decode_packed_frame(
    std::span<const std::uint8_t> data,
    const bloom::BloomParams& params = bloom::BloomParams{});

/// Query message: requester + terms.
struct QueryMessage {
  NodeId requester = kInvalidNode;
  std::vector<KeywordId> terms;
};
std::vector<std::uint8_t> encode_query(const QueryMessage& q);
void encode_query(const QueryMessage& q, Writer& w);
QueryMessage decode_query(std::span<const std::uint8_t> data);

}  // namespace asap::wire
