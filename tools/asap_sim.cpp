// asap_sim — the command-line front end to the whole suite.
//
// Runs any subset of the systems under test on any topology/preset with
// every protocol knob exposed, prints the paper's metrics, and optionally
// emits CSV for plotting and results.json. Every invocation is one
// experiment matrix (harness/matrix_runner.hpp): topology × fault
// scenario × algorithm × trial, reported in that order.
//
//   asap_sim --algo asap-rw,flooding --topology crawled --queries 4000
//   asap_sim --preset paper --algo all --jobs 4 --csv results.csv
//   asap_sim --algo asap-rw --m0 1500 --refresh-period 60 --hops 2
//   asap_sim --algo all --trials 8 --jobs 8 --json results.json
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "faults/fault_config.hpp"
#include "harness/matrix_runner.hpp"
#include "obs/observer.hpp"

namespace {

using namespace asap;

struct CliArgs {
  // The sweep this invocation runs (harness/matrix_runner.hpp); parse()
  // narrows its default algorithms to flooding and asap-rw.
  harness::MatrixSpec spec;
  std::string csv_path;
  std::string json_path;

  // Observability (obs/observer.hpp). Tracing observes exactly one run,
  // so these require a single cell and one trial (run_matrix checks).
  std::string trace_out;
  std::uint64_t trace_sample = 1;
  std::string counters_out;
  double counters_period = 60.0;

  // ASAP overrides (applied to every ASAP variant in the run).
  std::optional<std::uint64_t> m0;
  std::optional<double> refresh_period;
  std::optional<std::uint32_t> cache_capacity;
  std::optional<std::uint32_t> hops;
  std::optional<std::uint32_t> results_needed;
  std::optional<bool> refresh_pull;
};

harness::AlgoKind parse_algo(const std::string& name) {
  if (name == "flooding") return harness::AlgoKind::kFlooding;
  if (name == "random-walk" || name == "rw") {
    return harness::AlgoKind::kRandomWalk;
  }
  if (name == "gsa") return harness::AlgoKind::kGsa;
  if (name == "asap-fld") return harness::AlgoKind::kAsapFld;
  if (name == "asap-rw") return harness::AlgoKind::kAsapRw;
  if (name == "asap-gsa") return harness::AlgoKind::kAsapGsa;
  if (name == "asap-adaptive") return harness::AlgoKind::kAsapAdaptive;
  if (name == "asap-delta") return harness::AlgoKind::kAsapDelta;
  throw ConfigError("unknown algorithm: " + name +
                    " (try flooding, random-walk, gsa, asap-fld, asap-rw, "
                    "asap-gsa, asap-adaptive, asap-delta, all)");
}

void print_usage() {
  std::cout <<
      R"(asap_sim — ASAP P2P search simulator

  --preset small|paper        world scale (default small)
  --topology t1,t2 | all      random, powerlaw, crawled (default crawled)
  --algo a1,a2 | all          flooding, random-walk, gsa, asap-fld,
                              asap-rw, asap-gsa (default flooding,asap-rw;
                              "all" = those six). asap-adaptive and
                              asap-delta (byte-budgeted packed ad rounds)
                              must be named explicitly.
  --seed N                    master seed (default 42)
  --queries N                 override query count
  --jobs N                    parallel cells (default: hardware)
  --scale N                   re-dimension the world to N peers (the scale
                              axis, DESIGN.md section 15); >= 100k nodes
                              auto-enable streaming trace synthesis
  --stream-trace              synthesize trace events on demand instead of
                              materializing them (bit-identical digests;
                              forced on by --scale >= 100k)
  --trials N                  trials per cell (default 1); trial k runs
                              with world seed seed ^ trial_seed_salt(k)
                              and the table reports mean +/- stddev
  --csv FILE                  also write one CSV row per trial run
  --json FILE                 also write results.json
                              (schema: docs/RESULTS_SCHEMA.md)
  --audit                     run the simulation invariant auditor; any
                              violation is reported and exits nonzero
  --faults SPEC[,SPEC...]     deterministic fault injection (DESIGN.md
                              sections 11 and 16). Each SPEC is a preset —
                              none, churn, lossy, partition, burst, chaos,
                              polluted, polluted-open, storm, storm-open,
                              byzantine — or a path to a JSON scenario
                              file. The list is swept as a result axis.
                              Unknown presets exit nonzero with the
                              available list.
  --trust on|off              defense override for every fault scenario
                              (DESIGN.md section 16): "on" arms trust
                              scoring, strike-per-chain and the 0.65 ad
                              fill gate; "off" strips trust AND overload
                              protection (the defense-off control arm).
                              Default: each scenario's own knobs.

Observability (one topology, scenario, algorithm and trial; DESIGN.md
section 9):
  --trace-out FILE            JSONL event trace (query/ad/confirm/churn
                              spans); provably passive — the run digest is
                              identical with and without it
  --trace-sample N            keep every Nth trace record per kind
                              (default 1 = keep all)
  --counters-out FILE         JSONL counter snapshots on a virtual-time
                              cadence, plus final per-node rows
  --counters-period SECONDS   snapshot cadence (default 60)

ASAP protocol overrides:
  --m0 N                      ad budget unit M0
  --refresh-period SECONDS    refresh beacon period
  --cache-capacity N          ads cache entries per node
  --hops N                    ads-request radius h
  --results-needed N          positive confirmations wanted per search
  --refresh-pull on|off       pull-on-refresh extension
)";
}

CliArgs parse(int argc, char** argv) {
  CliArgs args;
  harness::MatrixSpec& spec = args.spec;
  spec.algos = {harness::AlgoKind::kFlooding, harness::AlgoKind::kAsapRw};
  spec.verbose = true;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError("missing value for " + flag);
      return argv[++i];
    };
    // Counts and the seed take digits only, up to their field's range.
    auto count = [&](std::uint64_t max) {
      return harness::parse_count(flag, next(), max);
    };
    auto count32 = [&] {
      return static_cast<std::uint32_t>(
          count(std::numeric_limits<std::uint32_t>::max()));
    };
    auto on_off = [&] {
      const std::string v = next();
      if (v != "on" && v != "off") throw ConfigError(flag + " takes on|off");
      return v == "on";
    };
    if (flag == "--help" || flag == "-h") {
      print_usage();
      std::exit(0);
    } else if (flag == "--preset") {
      const auto v = next();
      const auto preset = harness::preset_from_name(v);
      if (!preset) throw ConfigError("unknown preset: " + v);
      spec.preset = *preset;
    } else if (flag == "--topology") {
      spec.topologies = harness::topologies_from_list(next());
    } else if (flag == "--algo") {
      spec.algos.clear();
      const auto list = next();
      if (list == "all") {
        spec.algos.assign(std::begin(harness::kAllAlgos),
                          std::end(harness::kAllAlgos));
      } else {
        for (const auto& a : harness::split_list(list)) {
          spec.algos.push_back(parse_algo(a));
        }
      }
    } else if (flag == "--seed") {
      spec.seed = count(std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--queries") {
      spec.queries = count32();
    } else if (flag == "--jobs") {
      spec.jobs = count(std::numeric_limits<std::size_t>::max());
    } else if (flag == "--scale") {
      spec.scale = count32();
    } else if (flag == "--stream-trace") {
      spec.stream_trace = true;
    } else if (flag == "--trials") {
      spec.trials = count32();
    } else if (flag == "--audit") {
      spec.options.audit = true;
    } else if (flag == "--faults") {
      spec.fault_scenarios.clear();
      for (const auto& f : harness::split_list(next())) {
        spec.fault_scenarios.push_back(faults::scenario_from_spec(f));
      }
    } else if (flag == "--trust") {
      spec.trust = on_off();
    } else if (flag == "--csv") {
      args.csv_path = next();
    } else if (flag == "--json") {
      args.json_path = next();
    } else if (flag == "--trace-out") {
      args.trace_out = next();
    } else if (flag == "--trace-sample") {
      args.trace_sample = count(std::numeric_limits<std::uint64_t>::max());
      if (args.trace_sample == 0) {
        throw ConfigError("--trace-sample must be >= 1");
      }
    } else if (flag == "--counters-out") {
      args.counters_out = next();
    } else if (flag == "--counters-period") {
      args.counters_period = std::stod(next());
      if (args.counters_period <= 0.0) {
        throw ConfigError("--counters-period must be positive");
      }
    } else if (flag == "--m0") {
      args.m0 = count(std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--refresh-period") {
      args.refresh_period = std::stod(next());
    } else if (flag == "--cache-capacity") {
      args.cache_capacity = count32();
    } else if (flag == "--hops") {
      args.hops = count32();
    } else if (flag == "--results-needed") {
      args.results_needed = count32();
    } else if (flag == "--refresh-pull") {
      args.refresh_pull = on_off();
    } else {
      throw ConfigError("unknown flag: " + flag + " (see --help)");
    }
  }
  return args;
}

/// The spec's shared options (audit, observer) plus, for an ASAP variant,
/// the protocol overrides.
harness::RunOptions options_for(const CliArgs& args, harness::AlgoKind kind) {
  harness::RunOptions opts = args.spec.options;
  if (!harness::is_asap(kind)) return opts;
  auto& p = opts.asap.emplace(
      harness::default_asap_params(kind, args.spec.preset));
  if (args.m0) p.budget_unit_m0 = *args.m0;
  if (args.refresh_period) p.refresh_period = *args.refresh_period;
  if (args.cache_capacity) p.cache_capacity = *args.cache_capacity;
  if (args.hops) p.ads_request_hops = *args.hops;
  if (args.results_needed) p.results_needed = *args.results_needed;
  if (args.refresh_pull) p.refresh_pull = *args.refresh_pull;
  return opts;
}

/// Opens `path` for writing into `file`; nullptr when no path was given.
std::ostream* open_out(const std::string& path, std::ofstream& file) {
  if (path.empty()) return nullptr;
  file.open(path);
  if (!file) throw ConfigError("cannot write " + path);
  return &file;
}

/// One column of the table and the CSV: a headline metric
/// (harness::headline_metrics) shown in the table as scale × value.
struct Column {
  const char* header;
  const char* metric;
  double scale;
  int precision;
};

constexpr Column kColumns[] = {
    {"success %", "success_rate", 100.0, 1},
    {"resp ms", "avg_response_s", 1e3, 1},
    {"p50 ms", "p50_response_s", 1e3, 1},
    {"p95 ms", "p95_response_s", 1e3, 1},
    {"cost B/search", "avg_cost_bytes", 1.0, 0},
    {"results/search", "avg_results", 1.0, 2},
    {"load B/node/s", "load_mean_Bps", 1.0, 1},
    {"load stddev", "load_stddev_Bps", 1.0, 1},
};

/// The cell's mean, with "±stddev" when it ran more than one trial.
std::string table_value(const harness::CellAggregate& cell,
                        const Column& col) {
  for (const auto& [name, s] : cell.metrics) {
    if (name != col.metric) continue;
    std::string out = TextTable::num(col.scale * s.mean, col.precision);
    if (cell.trials > 1) {
      out += "±" + TextTable::num(col.scale * s.stddev, col.precision);
    }
    return out;
  }
  throw InvariantError(std::string("matrix cell is missing metric ") +
                       col.metric);
}

void print_fault_lines(const harness::MatrixResult& result) {
  bool header = false;
  for (const auto& run : result.trials) {
    const auto& f = run.result.faults;
    if (!f.enabled) continue;
    if (!header) std::cout << "\nfault summary:\n";
    header = true;
    const auto& c = run.result.asap_counters;
    std::cout << "  " << harness::topology_name(run.topology) << " / "
              << run.scenario << " / " << harness::algo_name(run.algo)
              << " trial " << run.trial << ": " << f.crashes << " crashes, "
              << (f.link_drops + f.burst_drops + f.partition_drops)
              << " fault drops, " << f.dead_sends << " dead sends, "
              << c.confirm_retries << " confirm retries, "
              << c.stale_evictions << " stale evictions, success under churn "
              << TextTable::num(
                     100.0 * run.result.search.success_rate_after_onset(), 1)
              << "% over " << run.result.search.total_after_onset()
              << " queries\n";
  }
}

void write_csv(const harness::MatrixResult& result, std::ostream& csv) {
  csv << "topology,faults,algorithm,trial";
  for (const auto& col : kColumns) csv << ',' << col.metric;
  csv << ",digest\n";
  for (const auto& run : result.trials) {
    csv << harness::topology_name(run.topology) << ',' << run.scenario << ','
        << harness::algo_name(run.algo) << ',' << run.trial;
    const auto metrics = harness::headline_metrics(run.result);
    for (const auto& col : kColumns) {
      for (const auto& [name, value] : metrics) {
        if (name == col.metric) csv << ',' << value;
      }
    }
    csv << ',' << std::hex << run.result.digest << std::dec << '\n';
  }
}

int run(CliArgs& args) {
  // Tracing observes one simulation: run_matrix rejects an observer on
  // anything but a one-run spec.
  std::ofstream trace_file, counters_file;
  std::optional<obs::RunObserver> observer;
  if (!args.trace_out.empty() || !args.counters_out.empty()) {
    obs::ObsConfig cfg;
    cfg.trace_out = open_out(args.trace_out, trace_file);
    cfg.trace_sample = args.trace_sample;
    cfg.counters_out = open_out(args.counters_out, counters_file);
    cfg.snapshot_period = args.counters_period;
    args.spec.options.observer = &observer.emplace(cfg);
  }
  args.spec.options_for = [&args](harness::AlgoKind kind) {
    return options_for(args, kind);
  };

  const auto result = harness::run_matrix(args.spec);
  if (trace_file.is_open()) {
    std::cout << "wrote " << args.trace_out << " ("
              << observer->trace_records_written() << " records)\n";
  }
  if (counters_file.is_open()) {
    std::cout << "wrote " << args.counters_out << '\n';
  }

  std::vector<std::string> headers{"topology", "faults", "algorithm",
                                   "trials"};
  for (const auto& col : kColumns) headers.emplace_back(col.header);
  TextTable table(headers);
  for (const auto& cell : result.cells) {
    std::vector<std::string> row{harness::topology_name(cell.topology),
                                 cell.scenario, harness::algo_name(cell.algo),
                                 std::to_string(cell.trials)};
    for (const auto& col : kColumns) row.push_back(table_value(cell, col));
    table.add_row(std::move(row));
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nmatrix digest " << asap::json::hex_u64(result.matrix_digest)
            << " (" << result.trials.size() << " trials, "
            << TextTable::num(result.wall_seconds, 1) << " s wall)\n";
  print_fault_lines(result);

  std::ofstream csv, json_out;
  if (open_out(args.csv_path, csv) != nullptr) {
    write_csv(result, csv);
    std::cout << "wrote " << args.csv_path << '\n';
  }
  if (open_out(args.json_path, json_out) != nullptr) {
    harness::write_results_json(result, json_out);
    std::cout << "wrote " << args.json_path << '\n';
  }

  std::uint64_t total_violations = 0;
  for (const auto& run : result.trials) {
    if (!run.result.audited || run.result.audit_violations == 0) continue;
    total_violations += run.result.audit_violations;
    std::cerr << "audit: " << run.result.audit_violations
              << " violation(s) in " << harness::algo_name(run.algo)
              << " on " << harness::topology_name(run.topology) << " trial "
              << run.trial << '\n';
    for (const auto& msg : run.result.audit_messages) {
      std::cerr << "  - " << msg << '\n';
    }
  }
  if (total_violations > 0) {
    std::cerr << "audit failed: " << total_violations
              << " total violation(s)\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliArgs args = parse(argc, argv);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
