// Ablation: flat ASAP vs. hierarchical (superpeer) ASAP — the paper's
// footnote-3 deployment mode, where only superpeers represent, deliver,
// cache and process ads.
//
// Expectations: the superpeer mode concentrates cache memory on ~15% of
// peers and disseminates over a much smaller mesh (lower ad load), at the
// cost of one extra proxy round trip per leaf search (higher response
// time) and sensitivity to superpeer liveness.
#include <iostream>

#include "asap/asap_protocol.hpp"
#include "bench/support.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  auto args = bench::BenchArgs::parse(argc, argv);
  if (args.queries_override == 0) args.queries_override = 2'000;
  const auto cfg = bench::make_config(args, harness::TopologyKind::kCrawled);
  std::cerr << "[bench] building crawled world...\n";
  const auto world = harness::build_world(cfg);

  std::cout << "=== Ablation: flat ASAP(RW) vs superpeer ASAP(RW), crawled "
               "===\n\n";
  TextTable table({"mode", "success %", "local hit %", "resp ms",
                   "cost/search", "load B/node/s", "state MB"});
  const auto add_row = [&](const std::string& mode,
                           const harness::RunResult& res) {
    table.add_row({mode, TextTable::num(100.0 * res.search.success_rate(), 1),
                   TextTable::num(100.0 * res.search.local_hit_rate(), 1),
                   TextTable::num(1e3 * res.search.avg_response_time(), 1),
                   TextTable::bytes(res.search.avg_cost_bytes()),
                   TextTable::num(res.load.mean_bytes_per_node_per_sec, 1),
                   TextTable::num(static_cast<double>(res.state_bytes) /
                                      (1024.0 * 1024.0),
                                  1)});
  };

  add_row("flat asap(rw)",
          harness::run_experiment(world, harness::AlgoKind::kAsapRw));
  std::cerr << "[bench] flat done\n";
  for (const double fraction : {0.10, 0.15, 0.25}) {
    harness::RunOptions opts;
    opts.asap = ads::AsapParams::superpeer(search::Scheme::kRandomWalk);
    opts.asap->superpeer_fraction = fraction;
    add_row("sp-asap(rw) " + TextTable::num(100.0 * fraction, 0) + "%",
            harness::run_experiment(world, harness::AlgoKind::kAsapRw, opts));
    std::cerr << "[bench] superpeer fraction=" << fraction << " done\n";
  }
  table.print(std::cout);
  return 0;
}
