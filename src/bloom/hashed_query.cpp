#include "bloom/hashed_query.hpp"

#include "bloom/probe.hpp"
#include "common/error.hpp"

namespace asap::bloom {

HashedKey::HashedKey(std::uint64_t key, const BloomParams& params)
    : key_(key) {
  ASAP_DCHECK(params.hashes <= kMaxHashes);
  probe::for_each_position(key, params.bits, params.hashes,
                           [this](std::uint32_t pos) {
                             pos_[count_++] = pos;
                             fold_mask_ |= 1ULL << (pos & 63);
                           });
}

void HashedQuery::assign(std::span<const KeywordId> terms,
                         const BloomParams& params) {
  params_ = params;
  terms_.assign(terms.begin(), terms.end());
  keys_.clear();
  keys_.reserve(terms_.size());
  fold_all_ = 0;
  for (const KeywordId term : terms_) {
    fold_all_ |= keys_.emplace_back(term, params).fold_mask();
  }
}

}  // namespace asap::bloom
