// The benchmark's workloads: which world, trace and system each one runs.
//
// Every workload is one slice of the paper's experiment matrix, replayed
// as a batch through harness::build_world -> harness::run_experiment. The
// workload seed and the number of trace queries are the only inputs; the
// simulator receives nothing but the world they generate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/replay.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  asap::harness::ExperimentConfig cfg;
  asap::harness::AlgoKind algo = asap::harness::AlgoKind::kFlooding;
};

/// Names accepted by make_workload / make_tiny_workload.
const std::vector<std::string>& workload_names();

/// Full-size workload replaying a trace of `queries` search requests.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint32_t queries);

/// A few-hundred-peer world with the same shape as the named workload
/// (same algorithm, fault preset, trace mix and streaming mode), used by
/// the self-test that pins the traced replay to run_experiment.
Workload make_tiny_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
