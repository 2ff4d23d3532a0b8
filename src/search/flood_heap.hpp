// The flood kernel's in-flight queue: a binary min-heap on arrival time.
//
// A paper-scale flood keeps thousands of copies in flight and pops each
// one, and arrival times tie often (latencies are sums of a few physical
// link delays). The tie order is observable: it decides a node's
// first-arrival `from` and TTL, how deposits interleave in the ledger
// digest, where a GSA budget cuts and the order of a visitor's RNG draws.
// So the heap specifies its hole moves instead of leaving them to the
// standard library. They are exactly those of libstdc++'s std::push_heap /
// std::pop_heap under std::greater<>, whose tie order every committed
// digest was recorded with (DESIGN.md §3):
//   * push: sift the new element up while its parent is strictly later;
//   * pop: move the last element out, walk the hole from the root to a
//     leaf taking the right child unless it is strictly later than the
//     left (at an even length, a lone left child), then sift the moved
//     element up from that leaf while its parent is strictly later.
//
// The heap holds 16-byte {arrival time, hop index} keys; each hop's
// {node, from, ttl} sits in a side array that push appends to. Both
// arrays keep their capacity across propagations: the heap lives in
// search::Ctx as scratch, one propagation at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace asap::search {

/// One in-flight flood copy: where it goes, where it came from, and the
/// hops it may still travel after arriving.
struct FloodHop {
  NodeId node;
  NodeId from;
  std::uint32_t ttl;
};

class FloodHeap {
 public:
  struct Popped {
    Seconds time;
    FloodHop hop;
  };

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  /// Empties the heap and the hop array, keeping their capacity.
  void clear() {
    keys_.clear();
    hops_.clear();
  }

  void push(Seconds time, const FloodHop& hop) {
    const auto index = static_cast<std::uint32_t>(hops_.size());
    hops_.push_back(hop);
    std::size_t hole = keys_.size();
    keys_.emplace_back();
    Key* a = keys_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(a[parent].time > time)) break;
      a[hole] = a[parent];
      hole = parent;
    }
    a[hole] = {time, index};
  }

  /// Removes and returns the earliest copy. Precondition: !empty().
  Popped pop() {
    const Key top = keys_.front();
    const Key last = keys_.back();
    keys_.pop_back();
    const std::size_t len = keys_.size();
    if (len > 0) {
      Key* a = keys_.data();
      std::size_t hole = 0;
      while (hole < (len - 1) / 2) {
        std::size_t child = 2 * hole + 2;
        // Branch-free: step to the left child iff the right is later.
        child -= static_cast<std::size_t>(a[child].time > a[child - 1].time);
        a[hole] = a[child];
        hole = child;
      }
      if ((len & 1) == 0 && hole == (len - 2) / 2) {
        a[hole] = a[2 * hole + 1];
        hole = 2 * hole + 1;
      }
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!(a[parent].time > last.time)) break;
        a[hole] = a[parent];
        hole = parent;
      }
      a[hole] = last;
    }
    return {top.time, hops_[top.hop]};
  }

 private:
  struct Key {
    Seconds time;
    std::uint32_t hop;  // index into hops_
  };
  static_assert(sizeof(Key) == 16);

  std::vector<Key> keys_;
  std::vector<FloodHop> hops_;
};

}  // namespace asap::search
