// Micro-benchmarks of the ads-cache lookup: legacy hash-per-term scan vs
// the hashed-query fast path (one-shot hashing + 8-byte prefilter +
// rarest-term-first early exit).
//
// Two modes:
//   * default            — the usual google-benchmark suite,
//   * --json[=PATH]      — skip google-benchmark and instead self-time the
//                          legacy/hashed lookup pairs at 256/1k/4k cached
//                          ads under hit and miss query mixes, writing a
//                          machine-readable report (default
//                          BENCH_lookup.json; schema checked in CI by
//                          tools/check_bench_lookup.py).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "asap/ad_cache.hpp"
#include "bloom/hashed_query.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace {

using asap::KeywordId;
using asap::NodeId;
using asap::Rng;
using asap::TopicId;
using asap::ads::AdCache;
using asap::ads::make_payload;
using asap::bloom::BloomFilter;
using asap::bloom::BloomParams;
using asap::bloom::HashedQuery;

constexpr std::uint64_t kAdKeyPool = 50'000;  // keyword space of cached ads
constexpr std::uint64_t kMissKeyBase = 1'000'000;  // disjoint: never cached
constexpr int kQueries = 256;
constexpr std::size_t kTermsPerQuery = 3;

struct Workload {
  AdCache cache{1u << 20};  // never evicts during setup
  std::vector<std::vector<KeywordId>> queries;
};

/// A cache with `entries` ads of 8–12 keywords each, plus `kQueries`
/// three-term queries. Hit mix: terms sampled from one cached ad (that ad
/// matches; the prefilter must let it through). Miss mix: terms from a
/// disjoint keyword range (matches only via Bloom false positives).
Workload build_workload(std::size_t entries, bool hits, std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  std::vector<std::vector<KeywordId>> ad_keys(entries);
  for (std::size_t e = 0; e < entries; ++e) {
    const std::uint64_t n = 8 + rng.below(5);
    BloomFilter f;
    for (std::uint64_t i = 0; i < n; ++i) {
      ad_keys[e].push_back(static_cast<KeywordId>(rng.below(kAdKeyPool)));
      f.insert(ad_keys[e].back());
    }
    w.cache.put(make_payload(static_cast<NodeId>(e), 1u, std::move(f),
                             std::vector<TopicId>{
                                 static_cast<TopicId>(rng.below(8))}),
                1.0, rng);
  }
  for (int q = 0; q < kQueries; ++q) {
    std::vector<KeywordId> terms;
    if (hits) {
      const auto& keys = ad_keys[rng.below(entries)];
      for (std::size_t t = 0; t < kTermsPerQuery; ++t) {
        terms.push_back(keys[rng.below(keys.size())]);
      }
    } else {
      for (std::size_t t = 0; t < kTermsPerQuery; ++t) {
        terms.push_back(
            static_cast<KeywordId>(kMissKeyBase + rng.below(kAdKeyPool)));
      }
    }
    w.queries.push_back(std::move(terms));
  }
  return w;
}

// --- google-benchmark suite ----------------------------------------------

void BM_CollectMatchesLegacy(benchmark::State& state) {
  const auto w = build_workload(static_cast<std::size_t>(state.range(0)),
                                state.range(1) != 0, 42);
  std::vector<asap::ads::AdPayloadPtr> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& terms = w.queries[i++ % w.queries.size()];
    w.cache.collect_matches(std::span<const KeywordId>(terms), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CollectMatchesHashed(benchmark::State& state) {
  const auto w = build_workload(static_cast<std::size_t>(state.range(0)),
                                state.range(1) != 0, 42);
  const BloomParams params;
  HashedQuery q;
  std::vector<asap::ads::AdPayloadPtr> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& terms = w.queries[i++ % w.queries.size()];
    q.assign(terms, params);  // charged to the fast path: hash once here
    w.cache.collect_matches(q, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CollectForReplyLegacy(benchmark::State& state) {
  const auto w = build_workload(static_cast<std::size_t>(state.range(0)),
                                state.range(1) != 0, 43);
  const std::vector<TopicId> interests{1, 3};
  std::vector<asap::ads::AdPayloadPtr> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& terms = w.queries[i++ % w.queries.size()];
    w.cache.collect_for_reply(std::span<const KeywordId>(terms), interests,
                              16, 8, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CollectForReplyHashed(benchmark::State& state) {
  const auto w = build_workload(static_cast<std::size_t>(state.range(0)),
                                state.range(1) != 0, 43);
  const BloomParams params;
  const std::vector<TopicId> interests{1, 3};
  HashedQuery q;
  std::vector<asap::ads::AdPayloadPtr> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& terms = w.queries[i++ % w.queries.size()];
    q.assign(terms, params);
    w.cache.collect_for_reply(q, interests, 16, 8, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void lookup_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t entries : {256, 1'024, 4'096}) {
    b->Args({entries, 1});  // hit mix
    b->Args({entries, 0});  // miss mix
  }
}
BENCHMARK(BM_CollectMatchesLegacy)->Apply(lookup_args);
BENCHMARK(BM_CollectMatchesHashed)->Apply(lookup_args);
BENCHMARK(BM_CollectForReplyLegacy)->Apply(lookup_args);
BENCHMARK(BM_CollectForReplyHashed)->Apply(lookup_args);

// --- --json mode: self-timed report --------------------------------------

template <typename Fn>
double ns_per_lookup(const Workload& w, Fn&& lookup) {
  using Clock = std::chrono::steady_clock;
  // Warm caches and pre-size the out vector.
  for (int i = 0; i < kQueries; ++i) lookup(w.queries[i]);
  std::uint64_t lookups = 0;
  const auto start = Clock::now();
  Clock::duration elapsed{};
  constexpr auto kMinTime = std::chrono::milliseconds(200);
  while (elapsed < kMinTime) {
    for (int i = 0; i < kQueries; ++i) lookup(w.queries[i]);
    lookups += kQueries;
    elapsed = Clock::now() - start;
  }
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  return static_cast<double>(ns) / static_cast<double>(lookups);
}

int run_json_report(const std::string& path) {
  const BloomParams params;
  asap::json::Array results;
  for (const std::size_t entries : {256u, 1'024u, 4'096u}) {
    for (const bool hits : {true, false}) {
      const auto w = build_workload(entries, hits, 42);
      std::vector<asap::ads::AdPayloadPtr> out;
      const double legacy_ns =
          ns_per_lookup(w, [&](const std::vector<KeywordId>& terms) {
            w.cache.collect_matches(std::span<const KeywordId>(terms), out);
            benchmark::DoNotOptimize(out.data());
          });
      HashedQuery q;
      const double hashed_ns =
          ns_per_lookup(w, [&](const std::vector<KeywordId>& terms) {
            q.assign(terms, params);
            w.cache.collect_matches(q, out);
            benchmark::DoNotOptimize(out.data());
          });
      const double speedup = legacy_ns / hashed_ns;
      std::printf("entries=%5zu mix=%-4s legacy=%9.1f ns  hashed=%8.1f ns  "
                  "speedup=%.2fx\n",
                  entries, hits ? "hit" : "miss", legacy_ns, hashed_ns,
                  speedup);
      results.push_back(asap::json::Object{
          {"bench", std::string("adcache_collect_matches")},
          {"entries", static_cast<double>(entries)},
          {"mix", std::string(hits ? "hit" : "miss")},
          {"legacy_ns_per_lookup", legacy_ns},
          {"hashed_ns_per_lookup", hashed_ns},
          {"speedup", speedup},
      });
    }
  }
#ifdef NDEBUG
  const bool release = true;
#else
  const bool release = false;
#endif
#ifdef ASAP_AUDIT_FORCE_ON
  const bool audit = true;  // oracle re-scans make speedups meaningless
#else
  const bool audit = false;
#endif
  const asap::json::Value doc{asap::json::Object{
      {"schema", std::string("asap.bench_lookup.v1")},
      {"release_build", release},
      {"audit_build", audit},
      {"unit", std::string("ns_per_lookup")},
      {"results", std::move(results)},
  }};
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  f << asap::json::dump(doc) << "\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return run_json_report("BENCH_lookup.json");
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_json_report(argv[i] + 7);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
