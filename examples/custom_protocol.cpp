// Extending the library: plugging a custom search protocol into the
// harness.
//
// Implements "expanding-ring" search — a classic Gnutella refinement the
// paper's related work alludes to: flood with TTL 1, and only on failure
// re-flood with a doubled TTL (1, 2, 4, ...). Cheap for popular content,
// but it pays repeated floods for rare content. Running it through the
// same replayer pits it against flooding and ASAP(RW) on the identical
// workload.
//
// The example shows the full extension surface: derive from
// search::SearchAlgorithm, drive the propagation kernels, account traffic
// via the shared BandwidthLedger (and the invariant auditor), name the
// traffic that counts as load, and record metrics with SearchStats. A
// factory hands the protocol to harness::run_experiment, the replay loop
// every built-in system runs through. Each row is audited, and the
// example exits 1 on any invariant violation.
//
//   ./custom_protocol [seed]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>

#include "common/table.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "search/propagation.hpp"
#include "sim/audit.hpp"

namespace {

using namespace asap;

class ExpandingRingSearch final : public search::SearchAlgorithm {
 public:
  ExpandingRingSearch(search::Ctx& ctx, std::uint32_t max_ttl)
      : ctx_(ctx), max_ttl_(max_ttl) {}

  std::string name() const override { return "expanding-ring"; }

  /// Like the baselines, only query messages count as load.
  std::span<const sim::Traffic> load_categories() const override {
    static constexpr sim::Traffic kLoad[] = {sim::Traffic::kQuery};
    return kLoad;
  }

  void on_trace_event(const trace::TraceEvent& ev) override {
    if (ev.type != trace::TraceEventType::kQuery) return;
    auto matching =
        ctx_.index.matching_nodes(ev.term_span(), ctx_.live, ctx_.model);
    matching.erase(
        std::remove(matching.begin(), matching.end(), ev.node),
        matching.end());

    metrics::SearchRecord rec;
    Seconds ring_start = ev.time;
    Seconds best = std::numeric_limits<Seconds>::infinity();
    for (std::uint32_t ttl = 1; ttl <= max_ttl_; ttl *= 2) {
      const auto prop = search::flood(
          ctx_, ev.node, ring_start, ttl, ctx_.sizes.query,
          sim::Traffic::kQuery,
          [&](NodeId n, Seconds t, std::uint32_t) {
            if (std::binary_search(matching.begin(), matching.end(), n)) {
              const Seconds back = t + ctx_.latency(n, ev.node);
              ASAP_AUDIT_HOOK(ctx_.auditor,
                              on_send(sim::Traffic::kResponse,
                                      ctx_.sizes.response));
              ctx_.ledger.deposit(back, sim::Traffic::kResponse,
                                  ctx_.sizes.response);
              best = std::min(best, back);
            }
            return search::VisitAction::kContinue;
          });
      rec.cost_bytes += prop.bytes;
      rec.messages += prop.messages;
      if (best < std::numeric_limits<Seconds>::infinity()) break;
      // Wait out the ring (~ttl hops of latency) before widening it.
      ring_start += 0.3 * ttl;
    }
    rec.success = best < std::numeric_limits<Seconds>::infinity();
    rec.response_time = rec.success ? best - ev.time : 0.0;
    stats_.add(rec);
  }

 private:
  search::Ctx& ctx_;
  std::uint32_t max_ttl_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  auto cfg = harness::ExperimentConfig::make(
      harness::Preset::kSmall, harness::TopologyKind::kCrawled, seed);
  cfg.trace.num_queries = 2'000;
  std::cout << "building world...\n";
  const auto world = harness::build_world(cfg);

  TextTable table(
      {"algorithm", "success %", "resp ms", "cost/search", "msgs/search"});
  harness::RunOptions opts;
  opts.audit = true;
  bool clean = true;
  auto add_row = [&](const harness::RunResult& res) {
    table.add_row({res.algo,
                   TextTable::num(100.0 * res.search.success_rate(), 1),
                   TextTable::num(1e3 * res.search.avg_response_time(), 1),
                   TextTable::bytes(res.search.avg_cost_bytes()),
                   TextTable::num(res.search.avg_messages(), 1)});
    for (const auto& msg : res.audit_messages) {
      std::cerr << res.algo << ": " << msg << '\n';
    }
    clean = clean && res.audit_violations == 0;
  };

  // The custom protocol, built by a factory against the run's context.
  std::cout << "running expanding-ring...\n";
  add_row(harness::run_experiment(
      world,
      [](search::Ctx& ctx) {
        return std::make_unique<ExpandingRingSearch>(ctx, 16);
      },
      opts));

  // Built-in references on the identical workload.
  for (const auto kind :
       {harness::AlgoKind::kFlooding, harness::AlgoKind::kAsapRw}) {
    std::cout << "running " << harness::algo_name(kind) << "...\n";
    add_row(harness::run_experiment(world, kind, opts));
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpanding ring undercuts flooding's cost when content is\n"
               "popular but re-floods for rare documents; ASAP sidesteps\n"
               "the dilemma by resolving from cached advertisements.\n";
  return clean ? 0 : 1;
}
