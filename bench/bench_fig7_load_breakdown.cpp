// Reproduces Figure 7: the breakdown of ASAP(RW) system load by traffic
// category on the crawled topology.
//
// Paper shape: after the system warms up, patch and refresh ads dominate
// (~91% of the ad traffic) while full ads contribute ~8.5%; search-related
// traffic (confirmations + ads requests) is a small slice.
#include <iostream>

#include "bench/support.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  auto args = bench::BenchArgs::parse(argc, argv);
  args.topologies = {harness::TopologyKind::kCrawled};

  const auto matrix = harness::run_matrix(
      bench::matrix_spec(args, {harness::AlgoKind::kAsapRw}));
  const auto& res = matrix.trials.front().result;

  std::cout << "=== Fig 7: ASAP(RW) system load breakdown, crawled "
               "topology ===\n\n";
  TextTable table({"traffic category", "bytes", "share of load",
                   "share of ad traffic"});
  Bytes ad_total = 0;
  for (const auto& cs : res.breakdown) {
    if (cs.category == sim::Traffic::kFullAd ||
        cs.category == sim::Traffic::kPatchAd ||
        cs.category == sim::Traffic::kRefreshAd) {
      ad_total += cs.bytes;
    }
  }
  for (const auto& cs : res.breakdown) {
    const bool is_ad = cs.category == sim::Traffic::kFullAd ||
                       cs.category == sim::Traffic::kPatchAd ||
                       cs.category == sim::Traffic::kRefreshAd;
    table.add_row(
        {sim::traffic_name(cs.category),
         TextTable::bytes(static_cast<double>(cs.bytes)),
         TextTable::num(100.0 * cs.share, 1) + "%",
         is_ad && ad_total > 0
             ? TextTable::num(100.0 * static_cast<double>(cs.bytes) /
                                  static_cast<double>(ad_total),
                              1) +
                   "%"
             : std::string("-")});
  }
  table.print(std::cout);

  std::cout << "\nevent counters: full=" << res.asap_counters.full_ads
            << " patch=" << res.asap_counters.patch_ads
            << " refresh=" << res.asap_counters.refresh_ads
            << " ads-requests=" << res.asap_counters.ads_requests
            << " confirms=" << res.asap_counters.confirm_requests << '\n';
  std::cout << "(paper: ~91% of ad traffic from patch+refresh ads, ~8.5% "
               "from full ads)\n";
  return 0;
}
