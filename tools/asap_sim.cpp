// asap_sim — the command-line front end to the whole suite.
//
// Runs any subset of the systems under test on any topology/preset with
// every protocol knob exposed, prints the paper's metrics, and optionally
// emits CSV for plotting.
//
//   asap_sim --algo asap-rw,flooding --topology crawled --queries 4000
//   asap_sim --preset paper --algo all --jobs 4 --csv results.csv
//   asap_sim --algo asap-rw --m0 1500 --refresh-period 60 --hops 2
//   asap_sim --matrix --algo all --trials 8 --jobs 8 --json results.json
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "faults/fault_config.hpp"
#include "harness/matrix_runner.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "obs/observer.hpp"

namespace {

using namespace asap;

struct CliArgs {
  harness::Preset preset = harness::Preset::kSmall;
  std::vector<harness::TopologyKind> topologies{
      harness::TopologyKind::kCrawled};
  std::vector<harness::AlgoKind> algos{harness::AlgoKind::kFlooding,
                                       harness::AlgoKind::kAsapRw};
  std::uint64_t seed = 42;
  std::uint32_t queries = 0;  // 0 = preset default
  std::size_t jobs = 0;
  std::uint32_t scale = 0;   // node-count override (0 = preset default)
  bool stream_trace = false;  // force on-demand trace synthesis
  std::string csv_path;
  bool audit = false;

  // Fault scenarios (faults/fault_config.hpp): preset names or JSON paths.
  // Empty = faults off. Plain mode takes one scenario; matrix mode sweeps
  // a comma-separated list as an extra axis.
  std::vector<faults::FaultScenario> fault_scenarios;

  // Matrix mode (harness/matrix_runner.hpp).
  bool matrix = false;
  std::uint32_t trials = 1;
  std::string json_path;

  // Observability (obs/observer.hpp). Tracing observes exactly one run,
  // so these require a single (topology, algo) pair — and one trial in
  // matrix mode.
  std::string trace_out;
  std::uint64_t trace_sample = 1;
  std::string counters_out;
  double counters_period = 60.0;

  bool tracing() const {
    return !trace_out.empty() || !counters_out.empty();
  }

  // Defense override (--trust on|off): tri-state like MatrixSpec::trust.
  // Unset leaves each fault scenario's own defense knobs alone.
  std::optional<bool> trust;

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

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const auto comma = list.find(',', pos);
    out.push_back(list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void print_usage() {
  std::cout <<
      R"(asap_sim — ASAP P2P search simulator

  --preset small|paper        world scale (default small)
  --topology t1,t2            random, powerlaw, crawled (default crawled)
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
  --csv FILE                  also write results as CSV
  --audit                     run the simulation invariant auditor; any
                              violation is reported and exits nonzero
  --faults SPEC[,SPEC...]     deterministic fault injection (DESIGN.md
                              sections 11 and 16). Each SPEC is a preset —
                              none, churn, lossy, partition, burst, chaos,
                              polluted, polluted-open, storm, storm-open,
                              byzantine — or a path to a JSON scenario
                              file. Plain mode takes one SPEC; matrix mode
                              sweeps the list as an extra result axis.
                              Unknown presets exit nonzero with the
                              available list.
  --trust on|off              defense override for every fault scenario
                              (DESIGN.md section 16): "on" arms trust
                              scoring, strike-per-chain and the 0.65 ad
                              fill gate; "off" strips trust AND overload
                              protection (the defense-off control arm).
                              Default: each scenario's own knobs.

Matrix mode (repeated-seed sweeps, results.json):
  --matrix                    fan (algo x topology x trial) out across the
                              pool and report mean +/- stddev over trials;
                              trial k runs with seed ^ trial_seed_salt(k)
  --trials N                  trials per cell (default 1)
  --json FILE                 write machine-readable results
                              (schema: docs/RESULTS_SCHEMA.md)

Observability (single topology + algorithm only; DESIGN.md section 9):
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
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_usage();
      std::exit(0);
    } else if (flag == "--preset") {
      const auto v = next();
      if (v == "paper") {
        args.preset = harness::Preset::kPaper;
      } else if (v == "small") {
        args.preset = harness::Preset::kSmall;
      } else {
        throw ConfigError("unknown preset: " + v);
      }
    } else if (flag == "--topology") {
      args.topologies.clear();
      for (const auto& t : split_csv(next())) {
        if (t == "random") {
          args.topologies.push_back(harness::TopologyKind::kRandom);
        } else if (t == "powerlaw") {
          args.topologies.push_back(harness::TopologyKind::kPowerlaw);
        } else if (t == "crawled") {
          args.topologies.push_back(harness::TopologyKind::kCrawled);
        } else {
          throw ConfigError("unknown topology: " + t);
        }
      }
    } else if (flag == "--algo") {
      args.algos.clear();
      const auto list = next();
      if (list == "all") {
        args.algos.assign(std::begin(harness::kAllAlgos),
                          std::end(harness::kAllAlgos));
      } else {
        for (const auto& a : split_csv(list)) {
          args.algos.push_back(parse_algo(a));
        }
      }
    } else if (flag == "--seed") {
      args.seed = std::stoull(next());
    } else if (flag == "--queries") {
      args.queries = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--jobs") {
      args.jobs = std::stoul(next());
    } else if (flag == "--scale") {
      args.scale = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--stream-trace") {
      args.stream_trace = true;
    } else if (flag == "--csv") {
      args.csv_path = next();
    } else if (flag == "--audit") {
      args.audit = true;
    } else if (flag == "--faults") {
      args.fault_scenarios.clear();
      for (const auto& s : split_csv(next())) {
        args.fault_scenarios.push_back(faults::scenario_from_spec(s));
      }
    } else if (flag == "--trust") {
      const std::string v = next();
      if (v != "on" && v != "off") {
        throw ConfigError("--trust takes on|off");
      }
      args.trust = (v == "on");
    } else if (flag == "--matrix") {
      args.matrix = true;
    } else if (flag == "--trials") {
      args.trials = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--json") {
      args.json_path = next();
    } else if (flag == "--trace-out") {
      args.trace_out = next();
    } else if (flag == "--trace-sample") {
      args.trace_sample = std::stoull(next());
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
      args.m0 = std::stoull(next());
    } else if (flag == "--refresh-period") {
      args.refresh_period = std::stod(next());
    } else if (flag == "--cache-capacity") {
      args.cache_capacity = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--hops") {
      args.hops = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--results-needed") {
      args.results_needed = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--refresh-pull") {
      args.refresh_pull = next() == "on";
    } else {
      throw ConfigError("unknown flag: " + flag + " (see --help)");
    }
  }
  return args;
}

harness::RunOptions options_for(const CliArgs& args, harness::AlgoKind kind) {
  harness::RunOptions opts;
  opts.audit = opts.audit || args.audit;
  if (!harness::is_asap(kind)) return opts;
  auto p = harness::default_asap_params(kind, args.preset);
  if (args.m0) p.budget_unit_m0 = *args.m0;
  if (args.refresh_period) p.refresh_period = *args.refresh_period;
  if (args.cache_capacity) p.cache_capacity = *args.cache_capacity;
  if (args.hops) p.ads_request_hops = *args.hops;
  if (args.results_needed) p.results_needed = *args.results_needed;
  if (args.refresh_pull) p.refresh_pull = *args.refresh_pull;
  opts.asap = p;
  return opts;
}

/// Owns the output streams and observer of one traced run. Tracing
/// observes exactly one simulation, so callers must first pass
/// require_single_run_for_tracing().
struct TraceSession {
  std::ofstream trace_file;
  std::ofstream counters_file;
  std::optional<obs::RunObserver> observer;

  explicit TraceSession(const CliArgs& args) {
    obs::ObsConfig cfg;
    if (!args.trace_out.empty()) {
      trace_file.open(args.trace_out);
      if (!trace_file) throw ConfigError("cannot write " + args.trace_out);
      cfg.trace_out = &trace_file;
      cfg.trace_sample = args.trace_sample;
    }
    if (!args.counters_out.empty()) {
      counters_file.open(args.counters_out);
      if (!counters_file) {
        throw ConfigError("cannot write " + args.counters_out);
      }
      cfg.counters_out = &counters_file;
    }
    cfg.snapshot_period = args.counters_period;
    observer.emplace(cfg);
  }

  void report(const CliArgs& args) const {
    if (!args.trace_out.empty()) {
      std::cout << "wrote " << args.trace_out << " ("
                << observer->trace_records_written() << " records)\n";
    }
    if (!args.counters_out.empty()) {
      std::cout << "wrote " << args.counters_out << '\n';
    }
  }
};

void require_single_run_for_tracing(const CliArgs& args) {
  if (!args.tracing()) return;
  if (args.topologies.size() != 1 || args.algos.size() != 1 ||
      (args.matrix && args.trials != 1)) {
    throw ConfigError(
        "--trace-out/--counters-out observe a single run: use exactly one "
        "--topology and one --algo (and --trials 1 in matrix mode)");
  }
}

/// "12.3±4.5"-style cell for the aggregate table.
std::string pm(const asap::metrics::MetricSummary& s, double scale,
               int precision) {
  return TextTable::num(scale * s.mean, precision) + "±" +
         TextTable::num(scale * s.stddev, precision);
}

const asap::metrics::MetricSummary& metric(
    const harness::CellAggregate& cell, const std::string& name) {
  for (const auto& [k, v] : cell.metrics) {
    if (k == name) return v;
  }
  throw InvariantError("matrix cell is missing metric " + name);
}

int run_matrix_mode(const CliArgs& args) {
  harness::MatrixSpec spec;
  spec.preset = args.preset;
  spec.topologies = args.topologies;
  spec.algos = args.algos;
  spec.seed = args.seed;
  spec.trials = args.trials;
  spec.jobs = args.jobs;
  spec.queries = args.queries;
  spec.scale = args.scale;
  spec.stream_trace = args.stream_trace;
  spec.options.audit = args.audit;
  if (!args.fault_scenarios.empty()) {
    spec.fault_scenarios = args.fault_scenarios;
  }
  spec.trust = args.trust;
  std::optional<TraceSession> session;
  if (args.tracing()) session.emplace(args);
  obs::RunObserver* observer = session ? &*session->observer : nullptr;
  spec.options.observer = observer;  // run_matrix re-checks the 1-cell rule
  spec.options_for = [&args, observer](harness::AlgoKind kind) {
    auto opts = options_for(args, kind);
    opts.observer = observer;
    return opts;
  };
  spec.verbose = true;

  const auto result = harness::run_matrix(spec);
  if (session) session->report(args);

  TextTable table({"topology", "faults", "algorithm", "trials", "success %",
                   "resp ms", "cost/search", "load B/node/s", "digest[0]"});
  for (const auto& cell : result.cells) {
    table.add_row({harness::topology_name(cell.topology), cell.scenario,
                   harness::algo_name(cell.algo),
                   std::to_string(cell.trials),
                   pm(metric(cell, "success_rate"), 100.0, 1),
                   pm(metric(cell, "avg_response_s"), 1e3, 1),
                   pm(metric(cell, "avg_cost_bytes"), 1.0, 0),
                   pm(metric(cell, "load_mean_Bps"), 1.0, 1),
                   asap::json::hex_u64(cell.digests.front())});
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nmatrix digest " << asap::json::hex_u64(result.matrix_digest)
            << " (" << result.trials.size() << " trials, "
            << TextTable::num(result.wall_seconds, 1) << " s wall)\n";

  if (!args.json_path.empty()) {
    std::ofstream json_out(args.json_path);
    if (!json_out) throw ConfigError("cannot write " + args.json_path);
    harness::write_results_json(result, json_out);
    std::cout << "wrote " << args.json_path << '\n';
  }

  std::uint64_t total_violations = 0;
  for (const auto& run : result.trials) {
    if (!run.result.audited || run.result.audit_violations == 0) continue;
    total_violations += run.result.audit_violations;
    std::cerr << "audit: " << run.result.audit_violations
              << " violation(s) in " << run.result.algo << " on "
              << harness::topology_name(run.topology) << " trial "
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
    const CliArgs args = parse(argc, argv);
    require_single_run_for_tracing(args);
    if (args.matrix) return run_matrix_mode(args);
    if (args.fault_scenarios.size() > 1) {
      throw ConfigError(
          "plain mode runs one fault scenario; use --matrix to sweep a "
          "--faults list");
    }

    std::optional<TraceSession> session;
    if (args.tracing()) session.emplace(args);

    struct Row {
      harness::TopologyKind topo;
      harness::RunResult res;
      double p50 = 0.0, p95 = 0.0;
    };
    std::vector<Row> rows;
    std::mutex mu;

    for (const auto topo : args.topologies) {
      auto cfg = harness::ExperimentConfig::make(args.preset, topo, args.seed);
      if (args.queries != 0) cfg.trace.num_queries = args.queries;
      if (args.scale != 0) cfg.apply_scale(args.scale);
      if (args.stream_trace) cfg.stream_trace = true;
      std::cerr << "building " << harness::topology_name(topo)
                << " world (" << cfg.content.initial_nodes << " peers, "
                << cfg.trace.num_queries << " queries"
                << (cfg.stream_trace ? ", streaming trace" : "") << ")...\n";
      const auto world = harness::build_world(cfg);

      ThreadPool pool(args.jobs);
      std::vector<std::future<void>> futs;
      for (const auto kind : args.algos) {
        futs.push_back(pool.submit([&, kind] {
          auto opts = options_for(args, kind);
          if (!args.fault_scenarios.empty() &&
              args.fault_scenarios.front().config.any()) {
            const auto& fc = args.fault_scenarios.front().config;
            opts.faults = args.trust ? fc.with_trust(*args.trust) : fc;
          }
          // Safe across the pool: tracing is restricted to one algorithm
          // and one topology, so at most one run sees the observer.
          if (session) opts.observer = &*session->observer;
          auto res = harness::run_experiment(world, kind, opts);
          std::cerr << "  " << res.algo << " done ("
                    << TextTable::num(res.wall_seconds, 1) << " s, "
                    << res.engine_events << " engine events, digest "
                    << std::hex << res.digest << std::dec << ")\n";
          Row row{topo, std::move(res)};
          const auto& samples = row.res.search.response_samples();
          if (!samples.empty()) {
            row.p50 = percentile(samples, 0.50);
            row.p95 = percentile(samples, 0.95);
          }
          std::lock_guard lock(mu);
          rows.push_back(std::move(row));
        }));
      }
      for (auto& f : futs) f.get();
    }

    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      return static_cast<int>(a.topo) < static_cast<int>(b.topo);
    });

    TextTable table({"topology", "algorithm", "success %", "resp ms",
                     "p50 ms", "p95 ms", "cost/search", "results/search",
                     "load B/node/s", "load stddev"});
    for (const auto& row : rows) {
      const auto& s = row.res.search;
      table.add_row({harness::topology_name(row.topo), row.res.algo,
                     TextTable::num(100.0 * s.success_rate(), 1),
                     TextTable::num(1e3 * s.avg_response_time(), 1),
                     TextTable::num(1e3 * row.p50, 1),
                     TextTable::num(1e3 * row.p95, 1),
                     TextTable::bytes(s.avg_cost_bytes()),
                     TextTable::num(s.avg_results(), 2),
                     TextTable::num(row.res.load.mean_bytes_per_node_per_sec,
                                    1),
                     TextTable::num(
                         row.res.load.stddev_bytes_per_node_per_sec, 1)});
    }
    std::cout << '\n';
    table.print(std::cout);

    if (!args.fault_scenarios.empty() &&
        args.fault_scenarios.front().config.any()) {
      std::cout << "\nfault scenario '" << args.fault_scenarios.front().name
                << "':\n";
      for (const auto& row : rows) {
        const auto& f = row.res.faults;
        const auto& c = row.res.asap_counters;
        std::cout << "  " << harness::topology_name(row.topo) << " / "
                  << row.res.algo << ": " << f.crashes << " crashes, "
                  << (f.link_drops + f.burst_drops + f.partition_drops)
                  << " fault drops, " << f.dead_sends << " dead sends, "
                  << c.confirm_retries << " confirm retries, "
                  << c.stale_evictions << " stale evictions, success under "
                  << "churn "
                  << TextTable::num(100.0 * f.success_rate_after_onset, 1)
                  << "% over " << f.queries_after_onset << " queries\n";
      }
    }

    std::uint64_t total_violations = 0;
    for (const auto& row : rows) {
      if (!row.res.audited || row.res.audit_violations == 0) continue;
      total_violations += row.res.audit_violations;
      std::cerr << "\naudit: " << row.res.audit_violations
                << " violation(s) in " << row.res.algo << " on "
                << harness::topology_name(row.topo) << ":\n";
      for (const auto& msg : row.res.audit_messages) {
        std::cerr << "  - " << msg << '\n';
      }
    }

    if (!args.csv_path.empty()) {
      std::ofstream csv(args.csv_path);
      if (!csv) throw ConfigError("cannot write " + args.csv_path);
      csv << "topology,algorithm,success_rate,avg_response_s,p50_s,p95_s,"
             "avg_cost_bytes,avg_results,load_mean,load_stddev,digest\n";
      for (const auto& row : rows) {
        const auto& s = row.res.search;
        csv << harness::topology_name(row.topo) << ',' << row.res.algo << ','
            << s.success_rate() << ',' << s.avg_response_time() << ','
            << row.p50 << ',' << row.p95 << ',' << s.avg_cost_bytes() << ','
            << s.avg_results() << ','
            << row.res.load.mean_bytes_per_node_per_sec << ','
            << row.res.load.stddev_bytes_per_node_per_sec << ','
            << std::hex << row.res.digest << std::dec << '\n';
      }
      std::cout << "\nwrote " << args.csv_path << '\n';
    }
    if (session) session->report(args);
    if (total_violations > 0) {
      std::cerr << "\naudit failed: " << total_violations
                << " total violation(s)\n";
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
