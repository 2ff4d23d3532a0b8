// Reproduces Figures 8 and 9: average system load (bytes per live node per
// second over the measurement window) and its standard deviation, for all
// six systems on the three overlay topologies.
//
// Paper shapes: flooding has the highest load with large variation;
// random walk bounds its load with the smallest variation among baselines;
// ASAP(RW) holds the lowest load overall (>=81% below the random-walk
// baseline in the paper) with only minor variation; ASAP(FLD) is the most
// expensive ASAP variant.
#include <iostream>

#include "bench/support.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  const auto args = bench::BenchArgs::parse(argc, argv);
  const auto result = harness::run_matrix(bench::matrix_spec(args));
  const auto& runs = result.trials;

  std::cout << "=== Fig 8: average system load (bytes/node/s) ===\n";
  std::cout << "=== Fig 9: system load standard deviation ===\n\n";

  TextTable table({"topology", "algorithm", "load B/node/s (Fig8)",
                   "stddev (Fig9)", "peak B/node/s"});
  for (const auto& run : runs) {
    const auto& l = run.result.load;
    table.add_row({harness::topology_name(run.topology), run.result.algo,
                   TextTable::num(l.mean_bytes_per_node_per_sec, 1),
                   TextTable::num(l.stddev_bytes_per_node_per_sec, 1),
                   TextTable::num(l.peak_bytes_per_node_per_sec, 1)});
  }
  table.print(std::cout);

  // Headline ratio: ASAP(RW) vs the random-walk baseline (crawled), from
  // the cells' means over trials.
  const auto rw_load =
      bench::cell_mean(result, harness::TopologyKind::kCrawled,
                       harness::AlgoKind::kRandomWalk, "load_mean_Bps");
  const auto asap_load =
      bench::cell_mean(result, harness::TopologyKind::kCrawled,
                       harness::AlgoKind::kAsapRw, "load_mean_Bps");
  if (rw_load && asap_load && *rw_load > 0.0) {
    const double cut = 100.0 * (1.0 - *asap_load / *rw_load);
    std::cout << "\ncrawled topology: ASAP(RW) load is "
              << TextTable::num(cut, 1)
              << "% below the random-walk baseline (paper: >81%)\n";
  }
  return 0;
}
