#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace asap::sim {

void Engine::push(Seconds t, EventCallback cb) {
  ASAP_REQUIRE(std::isfinite(t), "event time must be finite");
  ASAP_REQUIRE(t >= now_, "cannot schedule an event in the past");
  queue_.push_back(Item{t, next_seq_++, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Engine::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Item item = std::move(queue_.back());
  queue_.pop_back();
  // Warm the next event's out-of-line closure (if any) while this one
  // executes; purely a cache hint, so ordering and digests are untouched.
  if (!queue_.empty()) queue_.front().cb.prefetch();

  ASAP_DCHECK(item.time >= now_);
  digest_.absorb(item.time);
  digest_.absorb(item.seq);
  ASAP_AUDIT_HOOK(auditor_, on_event(item.time));
  ASAP_OBS_HOOK(observer_, on_engine_event(item.time));
  now_ = item.time;
  ++executed_;
  item.cb();
  return true;
}

void Engine::run_until(Seconds t_end) {
  while (!queue_.empty() && queue_.front().time <= t_end) step();
  if (now_ < t_end) now_ = t_end;
}

void Engine::run() {
  while (step()) {
  }
}

}  // namespace asap::sim
