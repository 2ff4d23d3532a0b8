#include "trace/content_model.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/error.hpp"
#include "common/zipf.hpp"

namespace asap::trace {

ContentModelParams ContentModelParams::small() { return ContentModelParams{}; }

ContentModelParams ContentModelParams::paper() {
  ContentModelParams p;
  p.initial_nodes = 10'000;
  p.joiner_nodes = 1'000;
  return p;
}

namespace {

/// Picks `count` distinct classes, weighted by the global class popularity.
std::vector<TopicId> pick_classes(std::uint32_t count, Rng& rng) {
  const auto& w = class_weights();
  std::vector<TopicId> out;
  while (out.size() < count && out.size() < kNumClasses) {
    const double u = rng.uniform01();
    double acc = 0.0;
    TopicId pick = kNumClasses - 1;
    for (TopicId c = 0; c < kNumClasses; ++c) {
      acc += w[c];
      if (u < acc) {
        pick = c;
        break;
      }
    }
    if (std::find(out.begin(), out.end(), pick) == out.end()) {
      out.push_back(pick);
    }
  }
  return out;
}

}  // namespace

void ContentModel::ensure_popular_sampler() const {
  // All class pools share one size, so one sampler serves them all.
  if (!popular_sampler_) {
    popular_sampler_ = std::make_unique<ZipfDraw>(
        params_.popular_terms_per_class, params_.popular_term_alpha);
  }
}

std::vector<KeywordId> ContentModel::make_keywords(TopicId cls, Rng& rng) {
  // 1-2 popular class terms (Zipf-weighted) + 2-5 globally unique terms.
  ensure_popular_sampler();
  std::vector<KeywordId> kws;
  const auto popular = 1 + static_cast<std::uint32_t>(rng.below(2));
  for (std::uint32_t i = 0; i < popular; ++i) {
    const auto rank = popular_sampler_->sample(rng) - 1;
    const KeywordId kw = cls * params_.popular_terms_per_class + rank;
    if (std::find(kws.begin(), kws.end(), kw) == kws.end()) kws.push_back(kw);
  }
  const auto unique = 2 + static_cast<std::uint32_t>(rng.below(4));
  for (std::uint32_t i = 0; i < unique; ++i) kws.push_back(next_keyword_++);
  return kws;
}

DocId ContentModel::mint_document(TopicId cls, Rng& rng) {
  ASAP_REQUIRE(cls < kNumClasses, "class id out of range");
  const auto id = static_cast<DocId>(corpus_.size());
  corpus_.push_back(Document{cls, make_keywords(cls, rng)});
  return id;
}

void ContentModel::replay_mint_draws(TopicId cls, Rng& rng) const {
  ASAP_REQUIRE(cls < kNumClasses, "class id out of range");
  ensure_popular_sampler();
  // Mirror make_keywords draw for draw: the popular-count uniform, one
  // sampler draw per popular term (dedup inspects only already-drawn
  // values), and the unique-count uniform (unique terms take fresh ids,
  // no draws).
  const auto popular = 1 + static_cast<std::uint32_t>(rng.below(2));
  for (std::uint32_t i = 0; i < popular; ++i) popular_sampler_->sample(rng);
  (void)rng.below(4);
}

ContentModel ContentModel::build(const ContentModelParams& params, Rng& rng) {
  ASAP_REQUIRE(params.initial_nodes >= 10, "need at least 10 initial nodes");
  ASAP_REQUIRE(params.free_rider_fraction >= 0.0 &&
                   params.free_rider_fraction < 1.0,
               "free-rider fraction out of [0,1)");
  ASAP_REQUIRE(params.mean_docs_per_sharer >= 1.0,
               "sharers must share at least one document on average");
  ASAP_REQUIRE(params.single_copy_fraction > 0.0 &&
                   params.single_copy_fraction <= 1.0,
               "single-copy fraction out of (0,1]");

  ContentModel m;
  m.params_ = params;
  const std::uint32_t total = m.total_node_slots();
  m.initial_docs_.resize(total);
  m.joiner_docs_.resize(params.joiner_nodes);
  m.interests_.resize(total);

  // Keyword pools: class c's popular terms are the sequential ids
  // [c * popular_terms_per_class, (c + 1) * popular_terms_per_class).
  m.next_keyword_ = kNumClasses * params.popular_terms_per_class;

  // --- interests & per-node document budget ----------------------------
  std::vector<std::uint32_t> need(total, 0);
  std::vector<std::vector<TopicId>> seed_classes(total);
  std::uint64_t target_instances = 0;
  for (NodeId n = 0; n < params.initial_nodes; ++n) {
    if (rng.chance(params.free_rider_fraction)) continue;  // free-rider
    seed_classes[n] = pick_classes(
        1 + static_cast<std::uint32_t>(rng.below(4)), rng);
    const auto docs = std::min<std::uint64_t>(
        params.max_docs_per_node,
        1 + rng.geometric(1.0 / params.mean_docs_per_sharer));
    need[n] = static_cast<std::uint32_t>(docs);
    target_instances += docs;
  }

  // Per-class candidate lists (nodes that still need documents).
  std::array<std::vector<NodeId>, kNumClasses> candidates;
  for (NodeId n = 0; n < params.initial_nodes; ++n) {
    for (TopicId c : seed_classes[n]) candidates[c].push_back(n);
  }

  ZipfSampler copy_tail(params.copy_tail_max, params.copy_tail_alpha);
  const auto& weights = class_weights();

  auto place_on = [&](NodeId n, DocId d) {
    m.initial_docs_[n].push_back(d);
    ASAP_DCHECK(need[n] > 0);
    --need[n];
  };

  // Draw a class for a new document, weighted by class popularity.
  auto draw_class = [&]() -> TopicId {
    const double u = rng.uniform01();
    double acc = 0.0;
    for (TopicId c = 0; c < kNumClasses; ++c) {
      acc += weights[c];
      if (u < acc) return c;
    }
    return kNumClasses - 1;
  };

  // Pick up to `copies` distinct holders for one document of class `cls`,
  // preferring interested candidates, spilling onto any needy node.
  std::vector<NodeId> all_needy;  // rebuilt lazily for the spill path
  auto pick_holders = [&](TopicId cls, std::uint32_t copies,
                          std::vector<NodeId>& out) {
    out.clear();
    auto& cand = candidates[cls];
    std::uint32_t attempts = 0;
    while (out.size() < copies && !cand.empty() &&
           attempts++ < copies * 8 + 16) {
      const auto idx = rng.below(cand.size());
      const NodeId n = cand[idx];
      if (need[n] == 0) {
        cand[idx] = cand.back();
        cand.pop_back();
        continue;
      }
      if (std::find(out.begin(), out.end(), n) == out.end()) {
        out.push_back(n);
      }
    }
    // Spill: the interested candidates ran short; place the rest anywhere.
    // At most one pool rebuild per call — if even a fresh pool cannot
    // provide a new distinct holder, the document gets fewer copies.
    bool rebuilt = false;
    while (out.size() < copies) {
      while (!all_needy.empty() &&
             (need[all_needy.back()] == 0 ||
              std::find(out.begin(), out.end(), all_needy.back()) !=
                  out.end())) {
        all_needy.pop_back();
      }
      if (all_needy.empty()) {
        if (rebuilt) break;
        rebuilt = true;
        all_needy.reserve(params.initial_nodes);
        for (NodeId n = 0; n < params.initial_nodes; ++n) {
          if (need[n] > 0) all_needy.push_back(n);
        }
        rng.shuffle(all_needy);
        continue;
      }
      out.push_back(all_needy.back());
      all_needy.pop_back();
    }
  };

  // --- generate documents until the instance budget is consumed --------
  std::uint64_t placed = 0;
  std::vector<NodeId> holders;
  while (placed < target_instances) {
    const TopicId cls = draw_class();
    std::uint32_t copies = 1;
    if (!rng.chance(params.single_copy_fraction)) {
      copies = 1 + copy_tail.sample(rng);
    }
    pick_holders(cls, copies, holders);
    if (holders.empty()) break;  // every need satisfied
    const DocId d = m.mint_document(cls, rng);
    for (NodeId n : holders) place_on(n, d);
    placed += holders.size();
  }

  // --- derive interests (paper: interests == classes of shared content;
  // free-riders get random interests) -----------------------------------
  for (NodeId n = 0; n < params.initial_nodes; ++n) {
    auto& ints = m.interests_[n];
    for (DocId d : m.initial_docs_[n]) {
      const TopicId c = m.corpus_[d].topic;
      if (std::find(ints.begin(), ints.end(), c) == ints.end()) {
        ints.push_back(c);
      }
    }
    if (ints.empty()) {
      // Free-rider (or a sharer that received no documents).
      const auto k = 1 + static_cast<std::uint32_t>(rng.below(3));
      while (ints.size() < k) {
        const auto c = static_cast<TopicId>(rng.below(kNumClasses));
        if (std::find(ints.begin(), ints.end(), c) == ints.end()) {
          ints.push_back(c);
        }
      }
    }
    std::sort(ints.begin(), ints.end());
  }

  // --- joiners: same sharing profile, content minted at build time ------
  for (std::uint32_t j = 0; j < params.joiner_nodes; ++j) {
    const NodeId slot = params.initial_nodes + j;
    auto classes = pick_classes(
        1 + static_cast<std::uint32_t>(rng.below(3)), rng);
    auto& docs = m.joiner_docs_[j];
    if (!rng.chance(params.free_rider_fraction)) {
      const auto count = std::min<std::uint64_t>(
          params.max_docs_per_node,
          1 + rng.geometric(1.0 / params.mean_docs_per_sharer));
      for (std::uint64_t i = 0; i < count; ++i) {
        const TopicId cls = classes[rng.below(classes.size())];
        docs.push_back(m.mint_document(cls, rng));
      }
    }
    auto& ints = m.interests_[slot];
    for (DocId d : docs) {
      const TopicId c = m.corpus_[d].topic;
      if (std::find(ints.begin(), ints.end(), c) == ints.end()) {
        ints.push_back(c);
      }
    }
    if (ints.empty()) ints.assign(classes.begin(), classes.end());
    std::sort(ints.begin(), ints.end());
  }

  return m;
}

const std::vector<DocId>& ContentModel::joiner_docs(NodeId n) const {
  ASAP_REQUIRE(n >= params_.initial_nodes && n < total_node_slots(),
               "not a joiner slot");
  return joiner_docs_[n - params_.initial_nodes];
}

std::array<std::uint32_t, kNumClasses> ContentModel::nodes_per_class() const {
  std::array<std::uint32_t, kNumClasses> out{};
  for (NodeId n = 0; n < params_.initial_nodes; ++n) {
    std::array<bool, kNumClasses> seen{};
    for (DocId d : initial_docs_[n]) seen[corpus_[d].topic] = true;
    for (std::uint32_t c = 0; c < kNumClasses; ++c) {
      if (seen[c]) ++out[c];
    }
  }
  return out;
}

std::array<std::uint32_t, kNumClasses> ContentModel::nodes_per_interest()
    const {
  std::array<std::uint32_t, kNumClasses> out{};
  for (NodeId n = 0; n < params_.initial_nodes; ++n) {
    for (TopicId c : interests_[n]) ++out[c];
  }
  return out;
}

double ContentModel::mean_replication() const {
  std::vector<std::uint32_t> copies(corpus_.size(), 0);
  for (NodeId n = 0; n < params_.initial_nodes; ++n) {
    for (DocId d : initial_docs_[n]) ++copies[d];
  }
  std::uint64_t instances = 0;
  std::uint32_t distinct = 0;
  for (auto c : copies) {
    if (c > 0) {
      ++distinct;
      instances += c;
    }
  }
  return distinct == 0
             ? 0.0
             : static_cast<double>(instances) / static_cast<double>(distinct);
}

double ContentModel::single_copy_fraction() const {
  std::vector<std::uint32_t> copies(corpus_.size(), 0);
  for (NodeId n = 0; n < params_.initial_nodes; ++n) {
    for (DocId d : initial_docs_[n]) ++copies[d];
  }
  std::uint32_t distinct = 0, singles = 0;
  for (auto c : copies) {
    if (c > 0) {
      ++distinct;
      if (c == 1) ++singles;
    }
  }
  return distinct == 0
             ? 0.0
             : static_cast<double>(singles) / static_cast<double>(distinct);
}

}  // namespace asap::trace
