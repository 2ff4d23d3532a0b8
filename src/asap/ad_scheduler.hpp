// Adaptive advertisement scheduler (serval-dna overlay_advertise style).
//
// Maintains a rotation ring of advertisement items plus an urgent FIFO.
// Each call to next_round() plans one ad round:
//   * phase A drains the urgent FIFO (new/changed ads) first — the first
//     urgent item always packs; further urgents pack while they fit inside
//     half the round budget, so change bursts cannot starve the rotation;
//   * phase B walks the rotation ring from a persistent cursor, emitting
//     every *eligible* item that still fits the byte budget. The first
//     rotation emission always packs (even oversized), so one huge ad can
//     never be starved by a stream of urgent traffic; the first item that
//     does not fit stops the walk and the cursor stays on it — the
//     remainder spills to the next round instead of bursting.
//
// Eligibility implements the multi-round decay: an item that has been
// emitted `stable_after` times without change re-advertises only every 2nd
// round, after `very_stable_after` emissions only every 4th round. An
// urgent upsert or touch_changed() resets the decay, so changed content
// returns to the every-round cadence.
//
// Deterministic by construction: no randomness, no clock — rounds are
// whatever the caller's timer says they are. Fairness contract (property
// test): every live item is emitted at least once per
// 4 * ceil(total_bytes / round_budget) rounds, and urgent emissions always
// precede rotation emissions within a round.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace asap::ads {

struct AdSchedulerParams {
  /// Per-round byte budget one packed ad frame may fill.
  Bytes round_budget = 1'200;
  /// Unchanged emissions before an item decays to an every-2nd-round
  /// cadence, and before it decays further to every 4th round.
  std::uint32_t stable_after = 2;
  std::uint32_t very_stable_after = 4;
};

class AdScheduler {
 public:
  using ItemId = std::uint32_t;

  struct Emission {
    ItemId id = 0;
    bool urgent = false;  ///< emitted from the urgent FIFO (phase A)
  };

  /// What one round did: emissions are appended to the caller's vector.
  struct RoundPlan {
    std::uint32_t emitted = 0;
    /// Items that wanted to go this round (urgent or rotation-eligible)
    /// but did not fit the budget; they carry over to the next round.
    std::uint32_t spilled = 0;
    Bytes bytes = 0;  ///< payload bytes of the emitted items
  };

  explicit AdScheduler(AdSchedulerParams params = {});

  /// Inserts the item or updates its advertised size. `urgent` enqueues it
  /// for the next round's priority phase and resets its stability decay;
  /// a non-urgent upsert of an existing item only updates its size.
  void upsert(ItemId id, Bytes bytes, bool urgent);

  /// Marks the item's content as changed without queue-jumping: the decay
  /// resets so it re-advertises every round again. No-op if absent.
  void touch_changed(ItemId id);

  /// Removes the item, preserving the rotation order of the remainder
  /// (ordered erase — a swap-with-back would teleport an arbitrary item
  /// across the cursor and break the fairness bound).
  bool erase(ItemId id);

  /// Plans the next round. Emissions are written to `out` (cleared first):
  /// urgent emissions first, then rotation emissions in ring order.
  RoundPlan next_round(std::vector<Emission>& out);

  // --- introspection (tests, stats) --------------------------------------
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  bool contains(ItemId id) const { return pos_.find(id) != pos_.end(); }
  Bytes total_bytes() const { return total_bytes_; }
  std::uint64_t round() const { return round_; }
  const AdSchedulerParams& params() const { return params_; }
  /// Current re-advertise stride of an item (1, 2 or 4); 0 when absent.
  std::uint32_t stride_of(ItemId id) const;

 private:
  struct Slot {
    ItemId id = 0;
    Bytes bytes = 0;
    std::uint32_t stable_emits = 0;
    std::uint64_t last_emit_round = 0;
    bool urgent = false;
    bool ever_emitted = false;
  };

  std::uint32_t stride(const Slot& s) const;
  bool eligible(const Slot& s) const;

  AdSchedulerParams params_;
  std::vector<Slot> ring_;  // rotation order = insertion order
  std::unordered_map<ItemId, std::uint32_t> pos_;
  /// Urgent queue; entries whose slot was erased or already drained are
  /// skipped lazily at round time.
  std::deque<ItemId> urgent_fifo_;
  std::size_t cursor_ = 0;
  std::uint64_t round_ = 0;
  Bytes total_bytes_ = 0;
};

}  // namespace asap::ads
