#include "asap/ad.hpp"

#include "common/error.hpp"

namespace asap::ads {

const char* ad_kind_name(AdKind k) {
  switch (k) {
    case AdKind::kFull:
      return "full";
    case AdKind::kPatch:
      return "patch";
    case AdKind::kRefresh:
      return "refresh";
    case AdKind::kDelta:
      return "delta";
  }
  return "?";
}

AdPayloadPtr make_payload(NodeId source, std::uint32_t version,
                          bloom::BloomFilter filter,
                          std::vector<TopicId> topics) {
  return AdPayloadPtr(
      new AdPayload(source, version, std::move(filter), std::move(topics)));
}

Bytes full_ad_bytes(const AdPayload& ad, const sim::SizeModel& sizes) {
  return sizes.ad_header + ad.topics.size() + ad.filter.wire_bytes();
}

Bytes patch_ad_bytes(std::size_t toggled_positions, std::size_t topics,
                     const sim::SizeModel& sizes) {
  return sizes.ad_header + topics + sizes.patch_entry * toggled_positions;
}

Bytes refresh_ad_bytes(const sim::SizeModel& sizes) {
  return sizes.ad_header;
}

Bytes delta_ad_bytes(std::size_t toggled_positions, std::size_t topics,
                     const sim::SizeModel& sizes) {
  return patch_ad_bytes(toggled_positions, topics, sizes) + 2;
}

Bytes ad_wire_bytes(AdKind kind, const AdPayload& ad,
                    std::size_t toggled_positions,
                    const sim::SizeModel& sizes) {
  switch (kind) {
    case AdKind::kFull:
      return full_ad_bytes(ad, sizes);
    case AdKind::kPatch:
      return patch_ad_bytes(toggled_positions, ad.topics.size(), sizes);
    case AdKind::kRefresh:
      return refresh_ad_bytes(sizes);
    case AdKind::kDelta:
      return delta_ad_bytes(toggled_positions, ad.topics.size(), sizes);
  }
  return 0;
}

TopicMask topic_mask_of(std::span<const TopicId> topics) {
  TopicMask mask = 0;
  for (const TopicId t : topics) {
    ASAP_REQUIRE(t < trace::kNumClasses, "topic is not a content class");
    mask |= static_cast<TopicMask>(1U << t);
  }
  return mask;
}

bool topics_overlap(const std::vector<TopicId>& a,
                    const std::vector<TopicId>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

}  // namespace asap::ads
