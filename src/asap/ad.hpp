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
//
// Ownership is an intrusive count inside the payload, so a handle
// (AdPayloadPtr) is one 8-byte pointer: an ad-cache record is a handle
// plus a touch time, 16 bytes (DESIGN.md §18). make_payload() creates
// every shared payload.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bloom/bloom.hpp"
#include "common/error.hpp"
#include "common/flat_map.hpp"
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

 private:
  friend class AdPayloadPtr;
  /// Number of AdPayloadPtr owners. A copy of a payload is a new object
  /// with no owners yet, so copying starts the count afresh.
  struct RefCount {
    std::atomic<std::uint32_t> n{0};
    RefCount() = default;
    RefCount(const RefCount&) {}
    RefCount& operator=(const RefCount&) = delete;
  };
  mutable RefCount refs_;
};

class AdPayloadPtr;

/// Creates a shared payload; the returned pointer is its first owner.
AdPayloadPtr make_payload(NodeId source, std::uint32_t version,
                          bloom::BloomFilter filter,
                          std::vector<TopicId> topics);

/// Owning handle to a payload made by make_payload(): shared_ptr
/// semantics (copies share, the last owner deletes), with the count kept
/// inside the payload so the handle is a single pointer.
class AdPayloadPtr {
 public:
  AdPayloadPtr() = default;
  AdPayloadPtr(std::nullptr_t) {}
  AdPayloadPtr(const AdPayloadPtr& other) : p_(other.p_) { retain(p_); }
  AdPayloadPtr(AdPayloadPtr&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  AdPayloadPtr& operator=(AdPayloadPtr other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~AdPayloadPtr() { release(p_); }

  const AdPayload* get() const { return p_; }
  const AdPayload& operator*() const { return *p_; }
  const AdPayload* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const AdPayloadPtr&, const AdPayloadPtr&) = default;
  friend bool operator==(const AdPayloadPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

 private:
  friend AdPayloadPtr make_payload(NodeId, std::uint32_t, bloom::BloomFilter,
                                   std::vector<TopicId>);
  friend class PayloadMap;

  /// Adds an owner to a payload that make_payload() created.
  explicit AdPayloadPtr(const AdPayload* p) : p_(p) { retain(p_); }

  static void retain(const AdPayload* p) {
    if (p != nullptr) ++p->refs_.n;
  }
  static void release(const AdPayload* p) {
    if (p == nullptr) return;
    const std::uint32_t before = p->refs_.n--;
    ASAP_DCHECK(before > 0);
    if (before == 1) delete p;
  }

  const AdPayload* p_ = nullptr;
};

/// NodeId -> AdPayloadPtr on a FlatMap (16 bytes and no heap while
/// empty). FlatMap values must be trivially copyable, so the slots hold
/// raw pointers and this map owns the one reference each stands for.
class PayloadMap {
 public:
  PayloadMap() = default;
  PayloadMap(PayloadMap&& other) noexcept = default;
  PayloadMap& operator=(PayloadMap&& other) noexcept {
    clear();
    map_ = std::move(other.map_);
    return *this;
  }
  ~PayloadMap() { clear(); }

  /// The payload stored for `key`, or null; valid while it stays stored.
  const AdPayload* get(NodeId key) const {
    const AdPayload* const* slot = map_.find(key);
    return slot == nullptr ? nullptr : *slot;
  }
  /// An owning pointer to the payload stored for `key`, or null.
  AdPayloadPtr find(NodeId key) const { return AdPayloadPtr(get(key)); }
  void set(NodeId key, const AdPayloadPtr& value) {
    ASAP_DCHECK(value != nullptr);
    AdPayloadPtr::retain(value.get());
    if (const AdPayload** slot = map_.find(key)) {
      AdPayloadPtr::release(*slot);
      *slot = value.get();
    } else {
      map_.emplace(key, value.get());
    }
  }
  void erase(NodeId key) {
    if (const AdPayload* const* slot = map_.find(key)) {
      AdPayloadPtr::release(*slot);
      map_.erase(key);
    }
  }
  /// Bytes of the slot array (the payloads are shared, counted elsewhere).
  std::uint64_t memory_bytes() const { return map_.memory_bytes(); }

 private:
  void clear() {
    map_.for_each(
        [](NodeId, const AdPayload* p) { AdPayloadPtr::release(p); });
    map_.clear();
  }

  FlatMap<NodeId, const AdPayload*> map_;
};

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
