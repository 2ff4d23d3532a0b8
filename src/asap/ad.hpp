// Advertisement representation (paper §III-B).
//
// An ad is a tuple (I, C, T, v): source identity, content information,
// topic set, and a version number. Four kinds exist:
//   * full ad    — complete content Bloom filter,
//   * patch ad   — changed bit positions since the previous version,
//   * refresh ad — header only (liveness + version beacon),
//   * delta ad   — changed bit positions since the last *full* ad (a
//     stable base, so consecutive deltas are independently applicable;
//     losing one does not break the chain the way a missed patch does).
//
// Payloads are immutable and shared: the system keeps exactly one
// AdPayload object per (source, version); every cache that holds that
// version of the ad points at the same object (a cacher that applies a
// patch reconstructs bit-identical content, so it simply adopts the new
// canonical payload). This keeps memory linear in the number of *versions*
// rather than the number of cache entries.
//
// Every field is const: a payload is built once and never edited, so the
// keys derived from it in the constructor — the filter's 64-bit fold (the
// ad-cache prefilter word) and the topic bitmask (the selective-caching
// test) — can never go stale. A variant payload, such as a polluter's
// stuffed filter, is a new payload built from the edited filter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bloom/bloom.hpp"
#include "common/types.hpp"
#include "sim/size_model.hpp"
#include "trace/classes.hpp"

namespace asap::ads {

enum class AdKind : std::uint8_t { kFull, kPatch, kRefresh, kDelta };

const char* ad_kind_name(AdKind k);

/// Topic set as a bitmask: bit t is set iff topic t is in the set. Topics
/// are content classes, so one 16-bit word covers them all, and two sets
/// overlap iff their masks share a bit.
using TopicMask = std::uint16_t;
static_assert(trace::kNumClasses <= sizeof(TopicMask) * 8,
              "TopicMask needs one bit per content class");

/// Mask of a topic list. Throws ConfigError for a topic that is not a
/// content class.
TopicMask topic_mask_of(std::span<const TopicId> topics);

struct AdPayload {
  const NodeId source;
  const std::uint32_t version;
  const bloom::BloomFilter filter;
  const std::vector<TopicId> topics;  // sorted
  /// filter.fold(), computed once here.
  const std::uint64_t fold;
  /// topic_mask_of(topics), computed once here.
  const TopicMask topic_mask;

  AdPayload(NodeId src, std::uint32_t ver, bloom::BloomFilter f,
            std::vector<TopicId> t)
      : source(src),
        version(ver),
        filter(std::move(f)),
        topics(std::move(t)),
        fold(filter.fold()),
        topic_mask(topic_mask_of(topics)) {}
};

using AdPayloadPtr = std::shared_ptr<const AdPayload>;

/// Wire size of a full ad: header + topic list + compressed filter.
Bytes full_ad_bytes(const AdPayload& ad, const sim::SizeModel& sizes);

/// Wire size of a patch ad with the given number of changed positions.
Bytes patch_ad_bytes(std::size_t toggled_positions, std::size_t topics,
                     const sim::SizeModel& sizes);

/// Wire size of a refresh ad (header only).
Bytes refresh_ad_bytes(const sim::SizeModel& sizes);

/// Wire size of a delta ad: a patch ad plus the base-full-version varint.
Bytes delta_ad_bytes(std::size_t toggled_positions, std::size_t topics,
                     const sim::SizeModel& sizes);

/// True iff the two sorted topic vectors intersect. Reference semantics
/// for the TopicMask test used on the hot paths.
bool topics_overlap(const std::vector<TopicId>& a,
                    const std::vector<TopicId>& b);

}  // namespace asap::ads
