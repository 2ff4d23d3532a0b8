#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper-asap-rw --seed 42 \\
        --seconds 10 --trace 0

Builds perfbench_sim from the checkout's sources (into .bench_build/),
then runs the workload in fresh single-threaded processes:

  --trace 0  one untraced run (harness::build_world -> run_experiment);
             prints every end_to_end metric of BENCHMARK.json.
  --trace 1  an audited run (run_experiment with RunOptions::audit, no
             spans) and a traced run of the same seed; prints every
             per_layer metric, computed from the traced run's spans and
             counters.

Each run's output is checked (see check_run / check_same). A failed
check, or a perfbench_sim that exits nonzero or runs out of time, marks
every query failed and exits 1 after printing the result. Exit 2 means the
benchmark itself could not build or start; it prints no result. The last
stdout line is the JSON result; everything else is commentary.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout as it was

import contract  # noqa: E402
import layers  # noqa: E402

BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench_sim"
DEFAULT_SEED = 42

# Trace queries replayed by a run of --seconds 10: enough for at least
# ten successful searches beyond the p99 response time, and measured to
# keep the run's spread low (README.md). Longer runs replay
# proportionally more; shorter ones keep this size for the p99 tail.
QUERIES_PER_10_S = {
    "paper-asap-rw": 2400,
    "paper-flooding": 4800,
    "churn-byzantine-asap-delta": 20000,
}

SIMULATED = ["success_rate", "response_ms", "response_p99_ms",
             "search_cost_kb", "system_load_bps"]
RUN_BUDGET_S = 175.0
FIRST_RUN_BUDGET_S = 880.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def queries_for(workload, seconds):
    return QUERIES_PER_10_S[workload] * max(10, seconds) // 10


def build():
    """Configures (once) and builds perfbench_sim; True if it compiled."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources missing under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    before = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_sim", "-j", "4"], stdout=sys.stderr,
                   check=True)
    return before != BINARY.stat().st_mtime_ns


class SimFailed(Exception):
    """perfbench_sim exited nonzero or ran out of time: the program under
    test failed, not the benchmark."""


def run_sim(args, deadline):
    """Runs perfbench_sim once; returns its JSON output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SimFailed("time budget spent before " + " ".join(args))
    env = dict(os.environ, OMP_NUM_THREADS="1")
    with subprocess.Popen([str(BINARY), *args], stdout=subprocess.PIPE,
                          text=True, env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SimFailed("perfbench_sim " + " ".join(args) +
                            " ran out of time")
    if proc.returncode != 0:
        raise SimFailed(f"perfbench_sim {' '.join(args)} exited "
                        f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_run(res, queries):
    """Problems with one run's own output (empty list = correct)."""
    problems = []
    if res["num_queries"] != queries:
        problems.append(f"trace has {res['num_queries']} queries, "
                        f"asked for {queries}")
    if res["queries_replayed"] != res["num_queries"]:
        problems.append(f"replayed {res['queries_replayed']} of "
                        f"{res['num_queries']} trace queries")
    if int(res["digest"], 16) == 0:
        problems.append("zero run digest")
    if not 0.0 < res["success_rate"] <= 1.0:
        problems.append(f"success rate {res['success_rate']} out of (0, 1]")
    for key in ("response_ms", "response_p99_ms", "search_cost_kb",
                "system_load_bps"):
        if not (math.isfinite(res[key]) and res[key] > 0):
            problems.append(f"{key} = {res[key]} is not positive")
    if res["mode"] == "audited":
        if not res["audited"]:
            problems.append("audited run did not audit")
        elif res["audit_violations"] != 0:
            problems.append(f"{res['audit_violations']} audit violations, "
                            f"first: {res['audit_first']}")
    return problems


def check_same(runs):
    """The runs of one seed must agree on the digest and simulated
    metrics bit for bit."""
    problems = []
    ref = runs[0]
    for r in runs[1:]:
        for key in ["digest", "queries_replayed"] + SIMULATED:
            if r[key] != ref[key]:
                problems.append(f"{key}: {ref['mode']} {ref[key]} != "
                                f"{r['mode']} {r[key]}")
    return problems


def check_repeat(key, record):
    """Compares `record` with what earlier runs of the same build,
    workload, seed and size recorded in this checkout, value by value,
    and records the values seen for the first time."""
    path = OUT_DIR / "observed.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    old = seen.setdefault(key, {})
    problems = [f"{k}: earlier run {old[k]} != now {v}"
                for k, v in record.items() if k in old and old[k] != v]
    if not problems and not record.keys() <= old.keys():
        old.update(record)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


def binary_id():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]


def p99_tail(res):
    """Successful searches beyond the p99 response time."""
    return int(res["successes"] * 0.01)


def end_to_end(res):
    return {"setup_s": res["setup_s"], "run_s": res["run_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            **{k: res[k] for k in SIMULATED}}


# Per-layer metrics computed here from spans and the three runs; the rest
# are span self times (layers.layer_times) and the traced run's counts and
# memory readings.
DERIVED_METRICS = (
    "search.query_us_p50", "search.query_us_p99", "search.query_samples",
    "asap.lookup_us_p50", "asap.lookup_us_p99", "sim.engine_ns_per_event",
    "mem.rss_explained", "harness.span_coverage", "harness.traced_wall_s",
    "obs.trace_overhead")


def per_layer(audited, traced, spans):
    """Per-layer metrics; `audited` is the untraced reference run."""
    wall_ns = traced["wall_s"] * 1e9
    m = layers.layer_times(spans, wall_ns)
    counts = {k[len("count:"):]: v for k, v in traced.items()
              if k.startswith("count:")}
    memory = {k[len("memory:"):]: v for k, v in traced.items()
              if k.startswith("memory:")}
    m.update(counts)
    m.update(memory)
    query_us = layers.durations_us(spans, "search.query")
    lookup_us = layers.durations_us(spans, "asap.lookup_probe")
    events = counts["sim.engine_events"]
    derived = {
        "search.query_us_p50": layers.percentile(query_us, 0.50),
        "search.query_us_p99": layers.percentile(query_us, 0.99),
        "search.query_samples": len(query_us),
        "asap.lookup_us_p50": layers.percentile(lookup_us, 0.50),
        "asap.lookup_us_p99": layers.percentile(lookup_us, 0.99),
        "sim.engine_ns_per_event":
            m["sim.engine_s"] * 1e9 / events if events else 0.0,
        "mem.rss_explained":
            max(memory["mem.components_warmup_mb"],
                memory["mem.components_end_mb"]) / audited["peak_rss_mb"],
        "harness.span_coverage": layers.coverage(spans, wall_ns),
        "harness.traced_wall_s": traced["wall_s"],
        "obs.trace_overhead": traced["wall_s"] / audited["wall_s"] - 1.0,
    }
    assert set(derived) == set(DERIVED_METRICS)
    m.update(derived)
    return m


def print_breakdown(spans, wall_s):
    print(f"  traced wall {wall_s:.3f} s; spans by self time:")
    for name, n, total, own, share in layers.breakdown_rows(spans,
                                                            wall_s * 1e9):
        if own >= 0.0005 * wall_s:
            print(f"    {name:<20} {n:>8} calls  total {total:9.3f} s  "
                  f"self {own:9.3f} s  {100 * share:5.1f}%")


def measure_untraced(common, queries, key, deadline):
    """--trace 0: end-to-end metrics and problems of one untraced run."""
    res = run_sim(common + ["--mode", "untraced"], deadline)
    problems = check_run(res, queries)
    problems += check_repeat(key, {k: res[k] for k in
                                   ["digest"] + SIMULATED})
    print(f"  digest {res['digest']}  successes {res['successes']} "
          f"({p99_tail(res)} beyond p99)")
    print(f"  build {res['build_s']:.3f} s  wall {res['wall_s']:.3f} s  "
          f"process cpu {res['cpu_s']:.3f} s")
    return end_to_end(res), problems


def measure_traced(common, queries, key, workload, deadline):
    """--trace 1: per-layer metrics and problems of an audited and a
    traced run of one seed."""
    audited = run_sim(common + ["--mode", "audited"], deadline)
    spans_path = OUT_DIR / f"spans-{workload}.csv"
    traced = run_sim(common + ["--mode", "traced", "--spans",
                               str(spans_path)], deadline)
    runs = [audited, traced]
    problems = [p for r in runs for p in check_run(r, queries)]
    problems += check_same(runs)
    spans = layers.read_spans(spans_path)
    values = per_layer(audited, traced, spans)
    if values["search.query_samples"] != queries:
        problems.append(f"{values['search.query_samples']} "
                        f"search.query spans for {queries} queries")
    counts = {k: v for k, v in traced.items() if k.startswith("count:")}
    problems += check_repeat(key, {"digest": traced["digest"],
                                   **{k: traced[k] for k in SIMULATED},
                                   **counts})
    print(f"  digest {traced['digest']} (audited untraced run "
          f"{audited['digest']}, {audited['audit_violations']} "
          f"violations)")
    print_breakdown(spans, traced["wall_s"])
    if values["harness.span_coverage"] < 0.9:
        log(f"warning: spans cover only "
            f"{values['harness.span_coverage']:.3f} of the traced wall")
    return values, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(QUERIES_PER_10_S))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be in [1, 600]")

    start = time.monotonic()
    spec = contract.load(ROOT)
    errors = contract.validate(spec)
    if errors:
        raise RuntimeError("BENCHMARK.json: " + "; ".join(errors))
    built = build()
    deadline = start + (FIRST_RUN_BUDGET_S if built else RUN_BUDGET_S)
    OUT_DIR.mkdir(exist_ok=True)

    queries = queries_for(args.workload, args.seconds)
    common = ["run", "--workload", args.workload, "--seed", str(args.seed),
              "--queries", str(queries)]
    key = f"{binary_id()}|{args.workload}|seed={args.seed}|q={queries}"
    print(f"workload {args.workload}  seed {args.seed}  queries {queries}  "
          f"trace {args.trace}")

    group = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace == 0:
            values, problems = measure_untraced(common, queries, key,
                                                deadline)
        else:
            values, problems = measure_traced(common, queries, key,
                                              args.workload, deadline)
        for m in group:
            print(f"  {m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    except SimFailed as e:
        # Nothing was measured: every metric reads 0 and every query fails.
        values = {m["name"]: 0.0 for m in group}
        problems = [str(e)]
    for p in problems:
        log("CHECK FAILED:", p)
    failed = queries if problems else 0
    print(contract.result_line(spec, args.trace, not problems, queries,
                               failed, values), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, OSError, ValueError, KeyError,
            TypeError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
