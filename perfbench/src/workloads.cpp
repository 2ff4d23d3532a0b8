#include "workloads.hpp"

#include <stdexcept>

#include "faults/fault_config.hpp"

namespace perfbench {

using asap::harness::AlgoKind;
using asap::harness::ExperimentConfig;
using asap::harness::Preset;
using asap::harness::TopologyKind;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-asap-rw", "paper-flooding", "churn-byzantine-asap-delta"};
  return names;
}

namespace {

/// Preset each full-size workload starts from.
Preset preset_of(const std::string& name) {
  if (name == "paper-asap-rw" || name == "paper-flooding") {
    return Preset::kPaper;
  }
  if (name == "churn-byzantine-asap-delta") return Preset::kSmall;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Applies the workload's system, fault and trace-mix choices to `cfg`.
Workload shape(const std::string& name, ExperimentConfig cfg) {
  Workload w{name, std::move(cfg)};
  if (name == "paper-asap-rw") {
    // ASAP(RW), faults off.
    w.algo = AlgoKind::kAsapRw;
  } else if (name == "paper-flooding") {
    // Flooding over a streamed trace (apply_scale streams only from 100k
    // peers on, so it is forced here).
    w.cfg.stream_trace = true;
    w.algo = AlgoKind::kFlooding;
  } else {
    // Packed adaptive rounds with delta ads under the byzantine fault
    // preset, on a write-heavy trace: one content change per query and
    // many departures, half of which rejoin.
    w.cfg.faults = asap::faults::fault_preset("byzantine").config;
    w.cfg.trace.content_change_fraction = 1.0;
    w.cfg.trace.rejoin_fraction = 0.5;
    w.algo = AlgoKind::kAsapDelta;
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint32_t queries) {
  auto cfg = ExperimentConfig::make(preset_of(name), TopologyKind::kCrawled,
                                    seed);
  if (name == "churn-byzantine-asap-delta") cfg.trace.leaves = 1'000;
  cfg.trace.num_queries = queries;
  return shape(name, std::move(cfg));
}

Workload make_tiny_workload(const std::string& name, std::uint64_t seed) {
  preset_of(name);  // validates the name
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled,
                                    seed);
  cfg.apply_scale(400);
  cfg.trace.num_queries = 400;
  // Half of the initial population departs, as in the full-size trace.
  if (name == "churn-byzantine-asap-delta") cfg.trace.leaves = 200;
  return shape(name, std::move(cfg));
}

}  // namespace perfbench
