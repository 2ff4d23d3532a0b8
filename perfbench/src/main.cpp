// perfbench_sim — one benchmark run of one workload, in its own process.
//
//   perfbench_sim run --workload W --seed N --queries Q
//                     --mode untraced|audited|traced [--spans FILE]
//   perfbench_sim selftest
//
// `run` prints one JSON object on stdout with the run's raw measurements
// (perfbench/run.py turns them into metrics and checks them):
//   * untraced — harness::build_world, then harness::run_experiment, as a
//     user would run them: no observer, no auditor;
//   * audited  — the same run with RunOptions::audit on;
//   * traced   — the benchmark's copy of the replay loop (traced_run.hpp)
//     with spans written to FILE at exit.
// `selftest` checks that the traced copy reproduces run_experiment's
// digest and metrics on a tiny world of every workload shape.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include <sys/resource.h>

#include "common/json.hpp"
#include "common/resource.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "traced_run.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using asap::harness::RunResult;
using asap::harness::World;
using asap::json::Object;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User plus system CPU time of this process so far, in seconds.
double cpu_seconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double num(std::uint64_t v) { return static_cast<double>(v); }

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Prints one JSON object as a single stdout line.
void emit(const Object& o) {
  std::cout << asap::json::dump_compact(o) << std::endl;
}

/// The run's digest and the five simulated end-to-end metrics, shared by
/// every mode.
Object simulated_metrics(const char* mode, std::uint64_t digest,
                         std::uint32_t num_queries,
                         const asap::metrics::SearchStats& s,
                         const asap::metrics::LoadSummary& load) {
  return {{"mode", mode},
          {"digest", hex(digest)},
          {"num_queries", num(num_queries)},
          {"queries_replayed", num(s.total())},
          {"successes", num(s.successes())},
          {"success_rate", s.success_rate()},
          {"response_ms", s.avg_response_time() * 1e3},
          {"response_p99_ms", s.response_percentile(0.99) * 1e3},
          {"search_cost_kb", s.avg_cost_bytes() / 1024.0},
          {"system_load_bps", load.mean_bytes_per_node_per_sec}};
}

double phase_wall(const RunResult& res, const std::string& phase) {
  for (const auto& p : res.profile) {
    if (p.phase == phase) return p.wall_seconds;
  }
  return 0.0;
}

int run_plain(const Workload& w, bool audit) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const World world = asap::harness::build_world(w.cfg);
  const double build_s = seconds_since(t0);

  asap::harness::RunOptions opts;
  opts.audit = audit;
  const auto t_call = Clock::now();
  const RunResult res = asap::harness::run_experiment(world, w.algo, opts);
  const double call_s = seconds_since(t_call);
  const double cpu_s = cpu_seconds() - cpu0;
  // Host time before the first trace event: the part of the call outside
  // the query-replay and reduce phases (per-run state and warm-up).
  const double pre_replay_s = res.wall_seconds -
                              phase_wall(res, "query-replay") -
                              phase_wall(res, "reduce");

  Object o = simulated_metrics(audit ? "audited" : "untraced", res.digest,
                               world.trace.num_queries, res.search,
                               res.load);
  const Object more = {
      {"build_s", build_s},
      {"setup_s", build_s + pre_replay_s},
      {"run_s", call_s - pre_replay_s},
      {"wall_s", build_s + call_s},
      {"cpu_s", cpu_s},
      {"engine_events", num(res.engine_events)},
      {"peak_rss_mb", mb(asap::peak_rss_bytes())},
      {"audited", res.audited},
      {"audit_violations", num(res.audit_violations)},
      {"audit_first", res.audit_messages.empty()
                          ? std::string()
                          : res.audit_messages.front()}};
  o.insert(o.end(), more.begin(), more.end());
  emit(o);
  return 0;
}

int run_traced_mode(const Workload& w, const std::string& spans_path) {
  SpanRecorder spans;
  const TracedResult r = run_traced(w, spans);
  const double peak_rss_mb = mb(asap::peak_rss_bytes());
  spans.write_csv(spans_path);

  Object o = simulated_metrics("traced", r.digest, r.num_queries, r.search,
                               r.load);
  o.emplace_back("wall_s", r.wall_s);
  o.emplace_back("peak_rss_mb", peak_rss_mb);
  o.emplace_back("spans", num(spans.spans().size()));
  for (const auto& [name, v] : r.counts) o.emplace_back("count:" + name, v);
  for (const auto& [name, v] : r.memory) {
    o.emplace_back("memory:" + name, v);
  }
  emit(o);
  return 0;
}

int selftest() {
  bool ok = true;
  for (const auto& name : workload_names()) {
    const Workload w = make_tiny_workload(name, 7);
    const World world = asap::harness::build_world(w.cfg);
    const RunResult ref = asap::harness::run_experiment(world, w.algo);
    SpanRecorder spans;
    const TracedResult got = run_traced(w, spans);
    const bool same =
        ref.digest == got.digest &&
        ref.search.total() == got.search.total() &&
        ref.search.successes() == got.search.successes() &&
        ref.search.avg_response_time() == got.search.avg_response_time() &&
        ref.search.avg_cost_bytes() == got.search.avg_cost_bytes() &&
        ref.load.mean_bytes_per_node_per_sec ==
            got.load.mean_bytes_per_node_per_sec;
    const bool all_queries = ref.search.total() == world.trace.num_queries;
    // The fault shape must really inject storm queries, and the streaming
    // shape must really stream.
    const bool shaped =
        (!w.cfg.faults.any() || ref.faults.storm_queries > 0) &&
        (w.cfg.stream_trace == world.streaming.enabled);
    std::cout << name << ": run_experiment " << hex(ref.digest) << ", traced "
              << hex(got.digest) << ", queries " << ref.search.total() << "/"
              << world.trace.num_queries << ", storm queries "
              << ref.faults.storm_queries << ", streaming "
              << world.streaming.enabled << ", spans " << spans.spans().size()
              << (same && all_queries && shaped ? "  ok" : "  MISMATCH")
              << "\n";
    ok = ok && same && all_queries && shaped;
  }
  return ok ? 0 : 1;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_sim: " << why << "\n"
            << "usage: perfbench_sim run --workload W --seed N --queries Q "
               "--mode untraced|audited|traced [--spans FILE]\n"
               "       perfbench_sim selftest\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string cmd = argv[1];
  if (cmd == "selftest") return selftest();
  if (cmd != "run") return usage("unknown command '" + cmd + "'");

  std::string workload;
  std::string mode;
  std::string spans_path;
  std::uint64_t seed = 0;
  std::uint64_t queries = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--queries") {
      queries = std::stoull(value);
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (queries == 0 || queries > 1'000'000) {
    return usage("--queries must be in [1, 1000000]");
  }
  const Workload w =
      make_workload(workload, seed, static_cast<std::uint32_t>(queries));
  if (mode == "untraced") return run_plain(w, false);
  if (mode == "audited") return run_plain(w, true);
  if (mode == "traced") {
    if (spans_path.empty()) return usage("--mode traced needs --spans FILE");
    return run_traced_mode(w, spans_path);
  }
  return usage("unknown mode '" + mode + "'");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_sim: " << e.what() << "\n";
    return 1;
  }
}
