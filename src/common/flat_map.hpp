// Open-addressing hash containers for per-node protocol state.
//
// The simulator keeps one AdCache (and several bookkeeping maps) per node,
// so at 1M nodes the fixed cost of every container is what decides whether a
// world fits in memory. std::unordered_map is ~56 bytes empty plus one heap
// node per entry; FlatMap below is 16 bytes empty, allocates lazily, and
// stores entries inline in a single slab with linear probing.
//
// Deletion uses backward-shift (no tombstones), so probe chains never decay
// under the churn-heavy insert/erase traffic of cache eviction. Keys must be
// unsigned integers and values trivially copyable — everything on the hot
// paths (NodeId -> slot index, NodeId -> deadline) qualifies, and the
// restriction is what lets the slab be raw bytes with memcpy copies.
//
// An empty slot holds the reserved key ~Key{0} (kInvalidNode for NodeId
// keys), so a probe reads only the slots themselves — one cache line per
// lookup in the common case, no side array of occupancy bytes. Inserting
// the reserved key is rejected in every build type.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace asap {

namespace detail {

/// SplitMix64 finalizer: cheap, well-mixed, and deterministic everywhere.
inline std::uint64_t flat_hash(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace detail

template <class Key, class Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned ints");
  static_assert(std::is_trivially_copyable_v<Value>,
                "FlatMap values must be trivially copyable");

  struct Slot {
    Key key;
    [[no_unique_address]] Value val;
  };

 public:
  /// Marks empty slots; never a valid key.
  static constexpr Key kEmptyKey = static_cast<Key>(~Key{0});

  FlatMap() = default;

  FlatMap(const FlatMap& other) { copy_from(other); }
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  FlatMap(FlatMap&& other) noexcept
      : mem_(std::move(other.mem_)), cap_(other.cap_), size_(other.size_) {
    other.cap_ = 0;
    other.size_ = 0;
  }
  FlatMap& operator=(FlatMap&& other) noexcept {
    mem_ = std::move(other.mem_);
    cap_ = other.cap_;
    size_ = other.size_;
    other.cap_ = 0;
    other.size_ = 0;
    return *this;
  }

  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t capacity() const { return cap_; }

  /// Bytes owned by the slab (zero until the first insert).
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(cap_) * sizeof(Slot);
  }

  /// Never finds kEmptyKey: its probe stops at the first empty slot.
  const Value* find(Key key) const {
    if (size_ == 0) return nullptr;
    const std::uint32_t mask = cap_ - 1;
    std::uint32_t i = home(key, mask);
    while (slots()[i].key != kEmptyKey) {
      if (slots()[i].key == key) return &slots()[i].val;
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  Value* find(Key key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }
  bool contains(Key key) const { return find(key) != nullptr; }

  /// Inserts (key, value) if absent; returns true if inserted. Throws
  /// InvariantError for kEmptyKey.
  bool emplace(Key key, Value value) {
    ASAP_CHECK(key != kEmptyKey);
    reserve_one();
    const std::uint32_t mask = cap_ - 1;
    std::uint32_t i = home(key, mask);
    while (slots()[i].key != kEmptyKey) {
      if (slots()[i].key == key) return false;
      i = (i + 1) & mask;
    }
    slots()[i] = Slot{key, value};
    ++size_;
    return true;
  }

  /// Returns the value for `key`, default-constructing it if absent.
  /// Throws InvariantError for kEmptyKey.
  Value& operator[](Key key) {
    ASAP_CHECK(key != kEmptyKey);
    reserve_one();
    const std::uint32_t mask = cap_ - 1;
    std::uint32_t i = home(key, mask);
    while (slots()[i].key != kEmptyKey) {
      if (slots()[i].key == key) return slots()[i].val;
      i = (i + 1) & mask;
    }
    slots()[i] = Slot{key, Value{}};
    ++size_;
    return slots()[i].val;
  }

  /// Removes `key` via backward-shift deletion; returns true if present.
  bool erase(Key key) {
    if (size_ == 0) return false;
    const std::uint32_t mask = cap_ - 1;
    std::uint32_t i = home(key, mask);
    while (true) {
      if (slots()[i].key == kEmptyKey) return false;
      if (slots()[i].key == key) break;
      i = (i + 1) & mask;
    }
    // Walk the chain after the hole; any entry whose home precedes the hole
    // (cyclically) slides back so later probes still find it.
    std::uint32_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots()[j].key == kEmptyKey) break;
      const std::uint32_t h = home(slots()[j].key, mask);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        slots()[i] = slots()[j];
        i = j;
      }
    }
    slots()[i].key = kEmptyKey;
    --size_;
    return true;
  }

  void clear() {
    mem_.reset();
    cap_ = 0;
    size_ = 0;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = 0; i < cap_; ++i) {
      if (slots()[i].key != kEmptyKey) fn(slots()[i].key, slots()[i].val);
    }
  }

 private:
  static std::uint32_t home(Key key, std::uint32_t mask) {
    return static_cast<std::uint32_t>(
               detail::flat_hash(static_cast<std::uint64_t>(key))) &
           mask;
  }

  Slot* slots() { return reinterpret_cast<Slot*>(mem_.get()); }
  const Slot* slots() const {
    return reinterpret_cast<const Slot*>(mem_.get());
  }

  void copy_from(const FlatMap& other) {
    if (other.cap_ == 0) {
      clear();
      return;
    }
    const std::size_t bytes = std::size_t{other.cap_} * sizeof(Slot);
    mem_ = std::make_unique<std::byte[]>(bytes);
    std::memcpy(mem_.get(), other.mem_.get(), bytes);
    cap_ = other.cap_;
    size_ = other.size_;
  }

  /// Grows to keep load factor below 3/4 with one more entry.
  void reserve_one() {
    if (cap_ != 0 && size_ + 1 <= cap_ - cap_ / 4) return;
    rehash(cap_ == 0 ? 8 : cap_ * 2);
  }

  void rehash(std::uint32_t new_cap) {
    ASAP_DCHECK((new_cap & (new_cap - 1)) == 0);
    auto fresh =
        std::make_unique<std::byte[]>(std::size_t{new_cap} * sizeof(Slot));
    auto* fresh_slots = reinterpret_cast<Slot*>(fresh.get());
    for (std::uint32_t j = 0; j < new_cap; ++j) {
      fresh_slots[j].key = kEmptyKey;
    }
    const std::uint32_t mask = new_cap - 1;
    for (std::uint32_t i = 0; i < cap_; ++i) {
      if (slots()[i].key == kEmptyKey) continue;
      std::uint32_t j = home(slots()[i].key, mask);
      while (fresh_slots[j].key != kEmptyKey) j = (j + 1) & mask;
      fresh_slots[j] = slots()[i];
    }
    mem_ = std::move(fresh);
    cap_ = new_cap;
  }

  std::unique_ptr<std::byte[]> mem_;
  std::uint32_t cap_ = 0;
  std::uint32_t size_ = 0;
};

/// Set view over FlatMap: same probing, zero-size payload.
template <class Key>
class FlatSet {
  struct Unit {};

 public:
  std::uint32_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  std::uint64_t memory_bytes() const { return map_.memory_bytes(); }
  bool contains(Key key) const { return map_.contains(key); }
  /// Returns true if `key` was newly inserted.
  bool insert(Key key) { return map_.emplace(key, Unit{}); }
  bool erase(Key key) { return map_.erase(key); }
  void clear() { map_.clear(); }

 private:
  FlatMap<Key, Unit> map_;
};

}  // namespace asap
