// Query-based baseline search algorithms (paper §IV-A):
//   * flooding with TTL 6,
//   * random walk with 5 walkers, TTL 1024 each,
//   * GSA with a total message budget of 8,000.
//
// A query is resolved inline: the kernel propagates the query message; at
// every visited node the query is checked against that node's actual
// shared documents (via the ground-truth index); each hit sends a response
// straight back to the requester. Search cost counts query messages only
// (§V-A); responses are tracked under Traffic::kResponse but excluded from
// cost and system load, exactly as the paper does.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "search/algorithm.hpp"
#include "search/context.hpp"

namespace asap::search {

enum class Scheme : std::uint8_t { kFlooding, kRandomWalk, kGsa };

const char* scheme_name(Scheme s);

struct BaselineParams {
  Scheme scheme = Scheme::kFlooding;
  std::uint32_t flood_ttl = 6;
  std::uint32_t walkers = 5;
  std::uint64_t walker_ttl = 1'024;
  std::uint64_t gsa_budget = 8'000;

  /// Parameters scaled for the small preset (budgets shrink with N so the
  /// relative reach matches the paper-scale configuration).
  static BaselineParams small(Scheme s);
  static BaselineParams paper(Scheme s);
};

class BaselineSearch final : public SearchAlgorithm {
 public:
  BaselineSearch(Ctx& ctx, BaselineParams params);

  /// Query messages only: responses are tracked but, as in the paper,
  /// excluded from load (§V-B).
  static constexpr sim::Traffic kLoadCategories[] = {sim::Traffic::kQuery};

  std::string name() const override;
  std::span<const sim::Traffic> load_categories() const override {
    return kLoadCategories;
  }
  void on_trace_event(const trace::TraceEvent& event) override;

 private:
  void run_query(const trace::TraceEvent& event);

  Ctx& ctx_;
  BaselineParams params_;
  // holder_stamp_[n] == stamp_ iff n is a matching holder of the query
  // being run (epoch stamps, like Ctx's visited marks).
  std::vector<std::uint32_t> holder_stamp_;
  std::uint32_t stamp_ = 0;
};

}  // namespace asap::search
