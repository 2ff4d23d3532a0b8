// Reproduces Figure 10: the real-time system load (bytes per live node per
// second) on the crawled topology, plotted for a 100-second window, for
// flooding, random walk, GSA and ASAP(RW).
//
// Paper shapes: flooding exhibits tall bursty spikes (tens of KB/node/s at
// peaks); GSA fluctuates less but still heavily; random walk is flat and
// low; ASAP(RW) is the flattest and lowest of all.
#include <algorithm>
#include <iostream>

#include "bench/support.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  auto args = bench::BenchArgs::parse(argc, argv);
  args.topologies = {harness::TopologyKind::kCrawled};

  const std::vector<harness::AlgoKind> algos{
      harness::AlgoKind::kFlooding, harness::AlgoKind::kRandomWalk,
      harness::AlgoKind::kGsa, harness::AlgoKind::kAsapRw};
  const auto runs = harness::run_matrix(bench::matrix_spec(args, algos)).trials;

  // A 100-second window in the middle of the measurement period.
  const auto& first = runs.front().result;
  const std::size_t series_len = first.load.series.size();
  const std::size_t window = std::min<std::size_t>(100, series_len);
  const std::size_t start =
      series_len > window ? (series_len - window) / 2 : 0;

  std::cout << "=== Fig 10: per-second system load, crawled topology, "
            << window << " s window starting at t=+" << start << " s ===\n\n";
  std::vector<std::string> headers{"t (s)"};
  for (const auto& run : runs) headers.push_back(run.result.algo);
  TextTable table(headers);
  for (std::size_t s = 0; s < window; ++s) {
    std::vector<std::string> row{std::to_string(start + s)};
    for (const auto& run : runs) {
      row.push_back(
          TextTable::num(run.result.load.series[start + s], 1));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  std::cout << "\nwindow summary (B/node/s):\n";
  for (const auto& run : runs) {
    const auto& series = run.result.load.series;
    double mx = 0.0, sum = 0.0;
    for (std::size_t s = 0; s < window; ++s) {
      mx = std::max(mx, series[start + s]);
      sum += series[start + s];
    }
    std::cout << "  " << run.result.algo << ": mean "
              << TextTable::num(sum / window, 1) << ", peak "
              << TextTable::num(mx, 1) << '\n';
  }
  return 0;
}
