// Shared plumbing for the figure-reproduction benches: command-line
// parsing and the matrix spec a figure bench hands harness::run_matrix.
//
// Every bench accepts:
//   --preset small|paper   world scale (default: small; paper = §IV-A)
//   --seed N               master seed (default 42)
//   --queries N            override trace query count
//   --topology t1,t2|all   subset of random,powerlaw,crawled, run in the
//                          given order
//   --jobs N               parallel cells (default: hardware concurrency)
//   --trials N             repetitions per cell; trial k runs with world
//                          seed seed ^ trial_seed_salt(k)
//                          (harness/replay.hpp), the same "trial k of
//                          seed s" asap_sim runs
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "harness/matrix_runner.hpp"

namespace asap::bench {

struct BenchArgs {
  harness::Preset preset = harness::Preset::kSmall;
  std::uint64_t seed = 42;
  std::uint32_t queries_override = 0;  // 0 = preset default
  std::vector<harness::TopologyKind> topologies{
      std::begin(harness::kAllTopologies), std::end(harness::kAllTopologies)};
  std::size_t jobs = 0;       // 0 = hardware concurrency
  std::uint32_t trials = 1;   // repetitions per (topology, algorithm) cell

  static BenchArgs parse(int argc, char** argv);
};

inline BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw ConfigError("missing value for flag " + flag);
      }
      return argv[++i];
    };
    auto count32 = [&] {
      return static_cast<std::uint32_t>(harness::parse_count(
          flag, next(), std::numeric_limits<std::uint32_t>::max()));
    };
    if (flag == "--preset") {
      const auto v = next();
      const auto preset = harness::preset_from_name(v);
      if (!preset) throw ConfigError("unknown preset: " + v);
      args.preset = *preset;
    } else if (flag == "--seed") {
      args.seed = harness::parse_count(
          flag, next(), std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--queries") {
      args.queries_override = count32();
    } else if (flag == "--jobs") {
      args.jobs = harness::parse_count(
          flag, next(), std::numeric_limits<std::size_t>::max());
    } else if (flag == "--trials") {
      args.trials = count32();
      if (args.trials == 0) throw ConfigError("--trials must be >= 1");
    } else if (flag == "--topology") {
      args.topologies = harness::topologies_from_list(next());
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "flags: --preset small|paper --seed N --queries N "
                   "--topology random,powerlaw,crawled|all --jobs N "
                   "--trials N\n";
      std::exit(0);
    } else {
      throw ConfigError("unknown flag: " + flag);
    }
  }
  return args;
}

inline harness::ExperimentConfig make_config(
    const BenchArgs& args, harness::TopologyKind topology) {
  auto cfg =
      harness::ExperimentConfig::make(args.preset, topology, args.seed);
  if (args.queries_override != 0) {
    cfg.trace.num_queries = args.queries_override;
  }
  return cfg;
}

/// The (topology × algorithm × trial) sweep a figure bench runs: the
/// requested topologies in the given order, one "none" fault scenario,
/// and by default the paper's six systems.
inline harness::MatrixSpec matrix_spec(
    const BenchArgs& args,
    std::vector<harness::AlgoKind> algos = {std::begin(harness::kAllAlgos),
                                            std::end(harness::kAllAlgos)}) {
  harness::MatrixSpec spec;
  spec.preset = args.preset;
  spec.topologies = args.topologies;
  spec.algos = std::move(algos);
  spec.seed = args.seed;
  spec.trials = args.trials;
  spec.jobs = args.jobs;
  spec.queries = args.queries_override;
  spec.verbose = true;
  return spec;
}

/// Mean over trials of a headline metric (a harness::headline_metrics
/// name) in the sweep's (topology, algorithm) cell, or nullopt when the
/// sweep ran no such cell.
inline std::optional<double> cell_mean(const harness::MatrixResult& result,
                                       harness::TopologyKind topology,
                                       harness::AlgoKind algo,
                                       std::string_view metric) {
  for (const auto& cell : result.cells) {
    if (cell.topology != topology || cell.algo != algo) continue;
    for (const auto& [name, summary] : cell.metrics) {
      if (name == metric) return summary.mean;
    }
  }
  return std::nullopt;
}

}  // namespace asap::bench
