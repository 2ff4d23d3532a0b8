"""Span arithmetic and per-layer metrics for the traced benchmark run.

The traced run (src/traced_run.cpp) writes one CSV row per span:
``id,parent,name,query,start_ns,end_ns``. A span's self time is its
duration minus the time its direct children cover; top-level spans
(parent -1) partition the traced run, so their summed duration over the
traced wall time is the span coverage.
"""

import csv
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    query: int
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


def read_spans(path):
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows)
        if header != ["id", "parent", "name", "query", "start_ns", "end_ns"]:
            raise ValueError(f"{path}: unexpected span header {header}")
        return [Span(int(r[0]), int(r[1]), r[2], int(r[3]), int(r[4]),
                     int(r[5])) for r in rows]


def self_times_ns(spans):
    """Self time of every span, in span order.

    Spans are listed in opening order, so a parent always precedes its
    children and ``span.id`` is its index.
    """
    selfs = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            selfs[s.parent] -= s.duration_ns
    return [max(0, v) for v in selfs]


@dataclass
class NameStats:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


def by_name(spans):
    """Count, inclusive time and self time per span name."""
    stats = {}
    for s, own in zip(spans, self_times_ns(spans)):
        st = stats.setdefault(s.name, NameStats())
        st.count += 1
        st.total_ns += s.duration_ns
        st.self_ns += own
    return stats


def coverage(spans, wall_ns):
    """Share of the traced wall time that top-level spans cover."""
    top = sum(s.duration_ns for s in spans if s.parent < 0)
    return top / wall_ns if wall_ns > 0 else 0.0


def percentile(values, q):
    """Linear-interpolation percentile (the simulator's own definition)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    if lo + 1 >= len(v):
        return float(v[-1])
    frac = pos - lo
    return v[lo] * (1.0 - frac) + v[lo + 1] * frac


# Per-layer time metrics: metric name -> span names whose self times it
# sums. Every span name the traced run records under a layer is listed
# here or in OTHER_SPANS (tests/test_layers.py keeps the two in step).
TIME_METRICS = {
    "net.build_s": ["net.build"],
    "overlay.build_s": ["overlay.build"],
    "trace.model_build_s": ["trace.model_build"],
    "trace.gen_s": ["trace.gen"],
    "trace.index_build_s": ["trace.index_build"],
    "trace.index_free_s": ["trace.index_free"],
    "trace.apply_s": ["trace.apply", "trace.next", "trace.stream_open"],
    "overlay.churn_s": ["overlay.churn"],
    "search.query_s": ["search.query"],
    "sim.engine_s": ["sim.engine"],
    "asap.change_s": ["asap.change"],
    "asap.churn_s": ["asap.churn"],
    "metrics.reduce_s": ["metrics.reduce"],
}

# Inclusive (span plus children) time metrics.
INCLUSIVE_METRICS = {
    "asap.warmup_s": "asap.warmup",
    "harness.teardown_s": "harness.teardown",
}

# Spans that carry no per-layer time metric of their own: containers
# (their self time is bookkeeping between child calls), parts of an
# inclusive metric, small per-run constructions and the benchmark's own
# probes.
OTHER_SPANS = {
    "world.build", "world.placement", "run.state", "overlay.copy",
    "trace.live_build", "sim.build", "faults.plan", "algo.build",
    "asap.warm_up", "sim.engine_warmup", "obs.memory_scan", "replay.event",
    "asap.lookup_probe", "sim.drain", "algo.free", "sim.free",
    "trace.live_free", "overlay.free",
}


def layer_times(spans, wall_ns):
    """Per-layer seconds and shares of the traced wall time."""
    stats = by_name(spans)
    out = {}

    def put(metric, ns):
        out[metric] = ns * 1e-9
        out[metric[:-2] + "_share"] = ns / wall_ns if wall_ns > 0 else 0.0

    for metric, names in TIME_METRICS.items():
        put(metric, sum(stats[n].self_ns for n in names if n in stats))
    for metric, name in INCLUSIVE_METRICS.items():
        put(metric, stats[name].total_ns if name in stats else 0)
    return out


def durations_us(spans, name):
    return [s.duration_ns * 1e-3 for s in spans if s.name == name]


def breakdown_rows(spans, wall_ns):
    """(name, count, total s, self s, self share) rows, by self time."""
    rows = [(name, st.count, st.total_ns * 1e-9, st.self_ns * 1e-9,
             st.self_ns / wall_ns if wall_ns > 0 else 0.0)
            for name, st in by_name(spans).items()]
    return sorted(rows, key=lambda r: -r[3])
