// Workload persistence: build a world once, save its content model and
// trace to a bundle file, reload, and verify a replay over the reloaded
// bundle reproduces the original run bit-for-bit.
//
// This is the workflow for comparing implementations across machines or
// versions: generate one canonical workload, ship the bundle, replay it
// everywhere.
//
//   ./bundle_replay [path]
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "trace/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  const std::string path = argc > 1 ? argv[1] : "/tmp/asap_workload.bundle";

  auto cfg = harness::ExperimentConfig::make(
      harness::Preset::kSmall, harness::TopologyKind::kCrawled, 42);
  cfg.trace.num_queries = 1'500;

  std::cout << "building world...\n";
  auto world = harness::build_world(cfg);

  std::cout << "saving workload bundle to " << path << "...\n";
  trace::save_bundle(path, world.model, world.trace);

  std::cout << "reloading...\n";
  auto bundle = trace::load_bundle(path);
  std::cout << "bundle: " << bundle.model.corpus().size() << " documents, "
            << bundle.trace.events.size() << " events\n";

  // Rebuild a world around the reloaded workload. The physical network and
  // overlay are regenerated from the same seed; the content and trace come
  // from the bundle.
  harness::World reloaded{cfg,
                          std::move(world.phys),
                          world.base_overlay,
                          world.node_phys,
                          std::move(bundle.model),
                          std::move(bundle.trace),
                          harness::StreamingTraceInfo{}};

  std::cout << "replaying ASAP(RW) on both...\n";
  // (the original world's phys network was moved into `reloaded`; rebuild)
  auto world2 = harness::build_world(cfg);
  const auto original =
      harness::run_experiment(world2, harness::AlgoKind::kAsapRw);
  const auto replayed =
      harness::run_experiment(reloaded, harness::AlgoKind::kAsapRw);

  TextTable table({"run", "success %", "resp ms", "cost/search"});
  for (const auto* r : {&original, &replayed}) {
    table.add_row({r == &original ? "generated" : "from bundle",
                   TextTable::num(100.0 * r->search.success_rate(), 2),
                   TextTable::num(1e3 * r->search.avg_response_time(), 2),
                   TextTable::bytes(r->search.avg_cost_bytes())});
  }
  table.print(std::cout);

  const bool identical =
      original.search.successes() == replayed.search.successes() &&
      original.search.avg_cost_bytes() == replayed.search.avg_cost_bytes();
  std::cout << (identical
                    ? "\nbundle replay is bit-identical to the generated run\n"
                    : "\nWARNING: replay diverged from the generated run\n");
  std::remove(path.c_str());
  return identical ? 0 : 1;
}
