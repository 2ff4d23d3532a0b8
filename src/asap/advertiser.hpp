// Per-node advertised-content state (paper §III-B/C).
//
// Tracks a node's shared keywords in a plain Bloom filter of its current
// content, the class histogram that defines the node's ad topics, the
// last advertised filter snapshot and the version counter. Produces the
// canonical AdPayload for each new version plus the toggle list a patch
// ad carries.
//
// The paper keeps node-side (i, x) counting tuples so that removals can
// clear bits. Here a removal rebuilds the bitmap from the documents the
// node still shares instead: the bits are the same, at 1.4 KB per sharer
// rather than 23 KB of 16-bit counters (DESIGN.md §2).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asap/ad.hpp"
#include "bloom/bloom.hpp"
#include "common/types.hpp"
#include "trace/classes.hpp"
#include "trace/content_model.hpp"

namespace asap::ads {

class Advertiser {
 public:
  explicit Advertiser(NodeId source,
                      bloom::BloomParams params = bloom::BloomParams{});

  NodeId source() const { return source_; }
  std::uint32_t version() const { return version_; }
  bool has_advertised() const { return payload_ != nullptr; }
  const AdPayloadPtr& payload() const { return payload_; }

  /// True when the node currently shares anything (free-riders have a null
  /// content filter and "have nothing to advertise", §III-B).
  bool has_content() const { return doc_count_ > 0; }

  void add_document(const trace::Document& doc);
  /// Removes `doc`. A bitmap cannot clear the document's bits by itself
  /// (another document may hold the same keyword), so the filter is
  /// rebuilt from `remaining`: the ids, into `corpus`, of every document
  /// the node still shares, `doc` not included.
  void remove_document(const trace::Document& doc,
                       std::span<const DocId> remaining,
                       std::span<const trace::Document> corpus);

  /// Current topic set (classes of the shared documents), sorted.
  std::vector<TopicId> topics() const;

  /// Snapshot the current content into a new version and return its
  /// canonical payload (used for full ads). No-op content still produces a
  /// new version so cachers can resynchronize. Also re-bases delta ads:
  /// the new payload becomes the delta base.
  AdPayloadPtr publish_full();

  /// Snapshot the current content into a new version *without* re-basing:
  /// the delta base stays at the last full ad, so the new version can ship
  /// as a delta ad against a base the cachers already hold.
  AdPayloadPtr publish_update();

  /// Positions that changed since the last published version — the patch
  /// body. Empty if nothing changed.
  std::vector<std::uint32_t> pending_patch() const;

  /// Positions that changed since the last *full* ad — the delta body.
  /// Empty if no full ad was published or nothing changed since it.
  std::vector<std::uint32_t> pending_delta() const;

  /// Version of the last full ad (the delta base); 0 before any full ad.
  std::uint32_t base_version() const {
    return base_payload_ ? base_payload_->version : 0;
  }
  const AdPayloadPtr& base_payload() const { return base_payload_; }

  /// True if any filter bit differs from the advertised snapshot.
  bool dirty() const;

  /// Heap bytes owned by this advertiser: the content bitmap plus the
  /// published payload snapshots (each holds its own bitmap copy; the
  /// AdPayloadPtr copies cached elsewhere alias these same blocks, so the
  /// producer is the one place they are counted).
  std::uint64_t memory_bytes() const {
    std::uint64_t total =
        filter_ ? sizeof(*filter_) + filter_->memory_bytes() : 0;
    if (payload_) total += sizeof(AdPayload) + payload_->filter.memory_bytes();
    if (base_payload_ && base_payload_ != payload_) {
      total += sizeof(AdPayload) + base_payload_->filter.memory_bytes();
    }
    return total;
  }

 private:
  NodeId source_;
  bloom::BloomParams params_;
  std::unique_ptr<bloom::BloomFilter> filter_;  // lazily allocated
  std::array<std::uint16_t, trace::kNumClasses> class_counts_{};
  std::uint32_t doc_count_ = 0;
  std::uint32_t version_ = 0;
  AdPayloadPtr payload_;       // canonical payload at `version_`
  AdPayloadPtr base_payload_;  // last *full* ad's payload (delta base)

  void ensure_filter();
  void insert_keywords(const trace::Document& doc);
};

}  // namespace asap::ads
