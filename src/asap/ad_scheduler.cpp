#include "asap/ad_scheduler.hpp"

namespace asap::ads {

AdScheduler::AdScheduler(AdSchedulerParams params) : params_(params) {
  if (params_.round_budget == 0) params_.round_budget = 1;
  if (params_.very_stable_after < params_.stable_after) {
    params_.very_stable_after = params_.stable_after;
  }
}

std::uint32_t AdScheduler::stride(const Slot& s) const {
  if (s.stable_emits >= params_.very_stable_after) return 4;
  if (s.stable_emits >= params_.stable_after) return 2;
  return 1;
}

bool AdScheduler::eligible(const Slot& s) const {
  return !s.ever_emitted || round_ - s.last_emit_round >= stride(s);
}

void AdScheduler::upsert(ItemId id, Bytes bytes, bool urgent) {
  auto it = pos_.find(id);
  if (it == pos_.end()) {
    pos_.emplace(id, static_cast<std::uint32_t>(ring_.size()));
    Slot s;
    s.id = id;
    s.bytes = bytes;
    s.urgent = urgent;
    ring_.push_back(s);
    total_bytes_ += bytes;
    if (urgent) urgent_fifo_.push_back(id);
    return;
  }
  Slot& s = ring_[it->second];
  total_bytes_ += bytes;
  total_bytes_ -= s.bytes;
  s.bytes = bytes;
  if (urgent) {
    s.stable_emits = 0;
    if (!s.urgent) {
      s.urgent = true;
      urgent_fifo_.push_back(id);
    }
  }
}

void AdScheduler::touch_changed(ItemId id) {
  auto it = pos_.find(id);
  if (it == pos_.end()) return;
  ring_[it->second].stable_emits = 0;
}

bool AdScheduler::erase(ItemId id) {
  auto it = pos_.find(id);
  if (it == pos_.end()) return false;
  const std::size_t idx = it->second;
  total_bytes_ -= ring_[idx].bytes;
  pos_.erase(it);
  ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(idx));
  for (std::size_t i = idx; i < ring_.size(); ++i) {
    pos_[ring_[i].id] = static_cast<std::uint32_t>(i);
  }
  // Stale urgent_fifo_ entries for this id are skipped lazily.
  if (idx < cursor_) --cursor_;
  if (cursor_ >= ring_.size()) cursor_ = 0;
  return true;
}

AdScheduler::RoundPlan AdScheduler::next_round(std::vector<Emission>& out) {
  out.clear();
  RoundPlan plan;
  ++round_;
  if (ring_.empty()) {
    urgent_fifo_.clear();
    return plan;
  }

  const Bytes budget = params_.round_budget;
  const Bytes urgent_cap = (budget + 1) / 2;
  Bytes used = 0;
  bool packed_any = false;

  const auto emit = [&](Slot& s, bool as_urgent) {
    out.push_back(Emission{s.id, as_urgent});
    used += s.bytes;
    plan.bytes += s.bytes;
    s.last_emit_round = round_;
    s.ever_emitted = true;
    packed_any = true;
  };

  // Phase A: urgent FIFO — new/changed ads jump the rotation. The first
  // urgent item always packs; afterwards urgents only pack while they fit
  // the half-budget cap, leaving the other half to the rotation.
  while (!urgent_fifo_.empty()) {
    const ItemId id = urgent_fifo_.front();
    const auto it = pos_.find(id);
    if (it == pos_.end() || !ring_[it->second].urgent) {
      urgent_fifo_.pop_front();  // erased item or duplicate queue entry
      continue;
    }
    Slot& s = ring_[it->second];
    if (packed_any && used + s.bytes > urgent_cap) break;  // spills
    urgent_fifo_.pop_front();
    s.urgent = false;
    s.stable_emits = 0;
    emit(s, true);
  }

  // Phase B: rotation walk from the persistent cursor. Ineligible and
  // urgent-flagged slots are skipped for free; the first eligible misfit
  // stops the walk with the cursor parked on it (spill). The first
  // rotation emission always packs so persistent urgent traffic cannot
  // starve an oversized stable ad.
  const std::size_t n = ring_.size();
  bool rotated = false;
  for (std::size_t step = 0; step < n; ++step) {
    if (cursor_ >= n) cursor_ = 0;
    Slot& s = ring_[cursor_];
    if (s.urgent || !eligible(s)) {
      cursor_ = (cursor_ + 1) % n;
      continue;
    }
    if (rotated && used + s.bytes > budget) break;
    emit(s, false);
    rotated = true;
    ++s.stable_emits;
    cursor_ = (cursor_ + 1) % n;
  }

  plan.emitted = static_cast<std::uint32_t>(out.size());
  for (const Slot& s : ring_) {
    if (s.urgent || eligible(s)) ++plan.spilled;
  }
  return plan;
}

std::uint32_t AdScheduler::stride_of(ItemId id) const {
  const auto it = pos_.find(id);
  return it == pos_.end() ? 0 : stride(ring_[it->second]);
}

}  // namespace asap::ads
