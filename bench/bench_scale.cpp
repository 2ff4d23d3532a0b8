// Scale sweep (DESIGN.md §15): world-build and replay cost from 10k to 1M
// peers on one machine. Exercises the pooled CSR overlay, the SoA/FlatMap
// node state and streaming trace synthesis end to end, and emits the
// machine-readable BENCH_scale.json that tools/check_bench_scale.py gates
// in CI (--enforce pins the 1M bytes-per-node budget).
//
// Random-walk runs at every scale (bounded per-query cost); ASAP(RW) runs
// at the scales where its M0 advertisement budget is feasible on one core
// (the paper's protocol floods ads to every peer at startup — at 1M nodes
// that is the dominant cost by orders of magnitude, and not what this
// sweep measures).
//
// Each (scale, algo) row runs in its own child process — this binary,
// invoked with that one scale and algo — so its peak_rss_bytes is that
// row's own high-water mark: getrusage reports a process-lifetime peak,
// which a row run in-process would inherit from every row before it. The
// parent builds no world, and Linux carries the mark across fork and
// exec, so the parent stays small. A single-row invocation runs in
// process.
//
//   bench_scale [--scales 10000,100000,1000000] [--queries 2000]
//               [--seed 7] [--json PATH] [--algos random-walk,asap(rw)]
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/resource.hpp"
#include "common/table.hpp"
#include "harness/config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace {

using namespace asap;
using namespace asap::harness;

struct Args {
  std::vector<std::uint32_t> scales{10'000, 100'000, 1'000'000};
  std::uint32_t queries = 2'000;
  std::uint64_t seed = 7;
  std::string json_path;
  /// Empty = default policy: random-walk everywhere, ASAP(RW) up to 100k
  /// (its startup ad flood costs minutes and ~gigabytes past that — CI's
  /// 100k run passes --algos random-walk to stay inside its address-space
  /// cap).
  std::vector<AlgoKind> algos;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      ASAP_REQUIRE(i + 1 < argc, flag + " needs a value");
      return argv[++i];
    };
    const auto count32 = [&](const std::string& text) {
      return static_cast<std::uint32_t>(parse_count(
          flag, text, std::numeric_limits<std::uint32_t>::max()));
    };
    if (flag == "--scales") {
      a.scales.clear();
      for (const auto& tok : split_list(next())) {
        a.scales.push_back(count32(tok));
      }
    } else if (flag == "--queries") {
      a.queries = count32(next());
    } else if (flag == "--seed") {
      a.seed = parse_count(flag, next(),
                           std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--json") {
      a.json_path = next();
    } else if (flag == "--algos") {
      for (const auto& tok : split_list(next())) {
        const auto kind = algo_from_name(tok);
        ASAP_REQUIRE(kind.has_value(), "unknown algorithm: " + tok);
        a.algos.push_back(*kind);
      }
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      std::exit(2);
    }
  }
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Builds the world and runs one row in this process.
json::Object run_row(const Args& args, std::uint32_t scale, AlgoKind kind) {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled,
                                    args.seed);
  cfg.apply_scale(scale);
  cfg.trace.num_queries = args.queries;

  const auto build_start = std::chrono::steady_clock::now();
  const World world = build_world(cfg);
  const double build_seconds = seconds_since(build_start);
  std::cerr << "[scale " << scale << "] world built in " << build_seconds
            << "s (streaming=" << (world.streaming.enabled ? "yes" : "no")
            << ")\n";

  const auto run_start = std::chrono::steady_clock::now();
  const RunResult r = run_experiment(world, kind);
  const double run_seconds = seconds_since(run_start);
  std::cerr << "[scale " << scale << "] " << r.algo << " done in "
            << run_seconds << "s\n";

  const std::uint32_t nodes = cfg.content.initial_nodes;
  const std::uint64_t overlay_bytes = world.base_overlay.memory_bytes();
  json::Object o;
  o.emplace_back("scale", static_cast<double>(scale));
  o.emplace_back("nodes", static_cast<double>(nodes));
  o.emplace_back("algo", r.algo);
  o.emplace_back("queries", static_cast<double>(cfg.trace.num_queries));
  o.emplace_back("streaming", world.streaming.enabled);
  o.emplace_back("world_build_seconds", build_seconds);
  o.emplace_back("run_wall_seconds", run_seconds);
  o.emplace_back("engine_events", static_cast<double>(r.engine_events));
  o.emplace_back("events_per_sec", r.events_per_sec);
  o.emplace_back("ns_per_event",
                 r.engine_events > 0 ? 1e9 * r.wall_seconds /
                                           static_cast<double>(r.engine_events)
                                     : 0.0);
  o.emplace_back("overlay_bytes", static_cast<double>(overlay_bytes));
  o.emplace_back("state_bytes", static_cast<double>(r.state_bytes));
  o.emplace_back("bytes_per_node",
                 static_cast<double>(overlay_bytes + r.state_bytes) /
                     static_cast<double>(nodes));
  o.emplace_back("peak_rss_bytes", static_cast<double>(r.peak_rss_bytes));
  o.emplace_back("digest", json::hex_u64(r.digest));
  return o;
}

/// Runs one row in a child process (this binary with that one scale and
/// algo, reporting into a temporary file) and returns the child's row.
json::Value run_row_in_child(const Args& args, std::uint32_t scale,
                             AlgoKind kind, std::size_t ordinal) {
  const std::filesystem::path report =
      std::filesystem::temp_directory_path() /
      ("bench_scale." + std::to_string(getpid()) + "." +
       std::to_string(ordinal) + ".json");
  std::vector<std::string> words{"bench_scale",
                                 "--scales",
                                 std::to_string(scale),
                                 "--algos",
                                 algo_name(kind),
                                 "--queries",
                                 std::to_string(args.queries),
                                 "--seed",
                                 std::to_string(args.seed),
                                 "--json",
                                 report.string()};
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  // The child's table goes to stderr; stdout carries only the sweep's.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                              argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ASAP_REQUIRE(err == 0, "cannot start a bench_scale child process");
  int status = 0;
  ASAP_REQUIRE(waitpid(pid, &status, 0) == pid, "waitpid failed");
  ASAP_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "bench_scale child failed at scale " + std::to_string(scale) +
                   " (" + algo_name(kind) + ")");
  std::ifstream is(report);
  std::stringstream text;
  text << is.rdbuf();
  is.close();
  std::filesystem::remove(report);
  const json::Value doc = json::parse(text.str());
  const auto& rows = doc.at("rows").as_array();
  ASAP_REQUIRE(rows.size() == 1, "bench_scale child must report one row");
  return rows.front();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // The rows to run, in ascending scale order; no world is built here.
  std::vector<std::pair<std::uint32_t, AlgoKind>> plan;
  for (const auto scale : args.scales) {
    std::vector<AlgoKind> algos = args.algos;
    if (algos.empty()) {
      algos.push_back(AlgoKind::kRandomWalk);
      // ASAP's startup advertisement flood is O(n * cache traffic); past
      // ~100k peers it dwarfs the replay this sweep measures.
      if (scale <= 100'000) algos.push_back(AlgoKind::kAsapRw);
    }
    for (const auto kind : algos) plan.emplace_back(scale, kind);
  }

  json::Array rows;
  if (plan.size() == 1) {
    rows.emplace_back(run_row(args, plan.front().first, plan.front().second));
  } else {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      rows.push_back(
          run_row_in_child(args, plan[i].first, plan[i].second, i));
    }
  }

  TextTable table({"scale", "algo", "stream", "build s", "run s", "events",
                   "B/node", "peak RSS MiB"});
  for (const auto& r : rows) {
    table.add_row(
        {std::to_string(static_cast<std::uint64_t>(r.at("scale").as_double())),
         r.at("algo").as_string(), r.at("streaming").as_bool() ? "yes" : "no",
         TextTable::num(r.at("world_build_seconds").as_double(), 2),
         TextTable::num(r.at("run_wall_seconds").as_double(), 2),
         std::to_string(
             static_cast<std::uint64_t>(r.at("engine_events").as_double())),
         TextTable::num(r.at("bytes_per_node").as_double(), 1),
         TextTable::num(r.at("peak_rss_bytes").as_double() / (1024.0 * 1024.0),
                        1)});
  }
  table.print(std::cout);

  if (!args.json_path.empty()) {
    json::Object doc;
    doc.emplace_back("schema", "asap.bench_scale.v1");
    doc.emplace_back("seed", static_cast<double>(args.seed));
    doc.emplace_back("rows", std::move(rows));
    std::ofstream os(args.json_path);
    ASAP_REQUIRE(os.good(), "cannot open " + args.json_path);
    os << json::dump(json::Value(std::move(doc)));
  }
  return 0;
}
