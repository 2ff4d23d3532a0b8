// Reproduces Figures 4, 5 and 6: search success rate, average response
// time and average bandwidth per search, for all six systems (flooding,
// random walk, GSA, ASAP(FLD), ASAP(RW), ASAP(GSA)) on the three overlay
// topologies (random, power-law, crawled).
//
// Paper shapes to expect: ASAP variants combine a high success rate with a
// response time 62-78% below flooding/GSA and a search cost 2-3 orders of
// magnitude lower; random walk has poor success (most documents are
// single-copy) and the longest response time.
#include <iostream>

#include "bench/support.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto result = harness::run_matrix(bench::matrix_spec(args));
  const auto& runs = result.trials;

  std::cout << "=== Fig 4: search success rate (%) ===\n";
  std::cout << "=== Fig 5: average response time of successful searches "
               "(ms) ===\n";
  std::cout << "=== Fig 6: average bandwidth consumed per search ===\n\n";

  TextTable table({"topology", "algorithm", "success % (Fig4)",
                   "resp ms (Fig5)", "cost/search (Fig6)", "msgs/search",
                   "local hit %"});
  for (const auto& run : runs) {
    const auto& s = run.result.search;
    table.add_row(
        {harness::topology_name(run.topology), run.result.algo,
         TextTable::num(100.0 * s.success_rate(), 1),
         TextTable::num(1e3 * s.avg_response_time(), 1),
         TextTable::bytes(s.avg_cost_bytes()),
         TextTable::num(s.avg_messages(), 1),
         harness::is_asap(run.algo)
             ? TextTable::num(100.0 * s.local_hit_rate(), 1)
             : std::string("-")});
  }
  table.print(std::cout);

  // Headline ratios on the crawled topology (the paper's §V focus), from
  // the cells' means over trials.
  const auto mean = [&](harness::AlgoKind algo, std::string_view metric) {
    return bench::cell_mean(result, harness::TopologyKind::kCrawled, algo,
                            metric);
  };
  const auto flood_resp = mean(harness::AlgoKind::kFlooding, "avg_response_s");
  const auto flood_cost = mean(harness::AlgoKind::kFlooding, "avg_cost_bytes");
  const auto asap_resp = mean(harness::AlgoKind::kAsapRw, "avg_response_s");
  const auto asap_cost = mean(harness::AlgoKind::kAsapRw, "avg_cost_bytes");
  if (flood_resp && asap_resp && *flood_resp > 0.0) {
    const double resp_cut = 100.0 * (1.0 - *asap_resp / *flood_resp);
    const double cost_ratio = *flood_cost / std::max(1.0, *asap_cost);
    std::cout << "\ncrawled topology, ASAP(RW) vs flooding: response time "
              << TextTable::num(resp_cut, 1) << "% shorter (paper: 62-78%), "
              << "search cost " << TextTable::num(cost_ratio, 0)
              << "x lower (paper: 2-3 orders of magnitude)\n";
  }
  return 0;
}
