#!/usr/bin/env python3
"""Check a BENCH_scale.json produced by bench_scale --json.

Usage: check_bench_scale.py [--enforce] FILE

Default mode validates structure only: every row carries the full field
set with sane values, scales are ascending, and every scale has a
random-walk row. That is the gate for a freshly generated CI report,
whose absolute timings are noise.

--enforce additionally pins the ISSUE 9 acceptance numbers on the
*committed* report (measured at optimization time, deterministic to
re-check):
  * a 1,000,000-node row exists,
  * its overlay + node-state footprint is <= MAX_BYTES_PER_NODE
    bytes per node,
  * every row at >= STREAMING_FLOOR nodes ran with streaming trace
    synthesis (no materialized event vector),
  * the 1M world build stayed under MAX_BUILD_SECONDS (catches an
    accidental O(n^2) regression in a generator, with a wide margin
    for slow machines),
  * every asap(rw) row holds overlay + node state in at most
    MAX_ASAP_BYTES_PER_NODE bytes per node (the slimmed ad-cache and
    advertiser state, DESIGN.md §18).

Each row is measured in its own process, so peak_rss_bytes is that
row's own high-water mark.
"""
import json
import sys

NUM = (int, float)

# ISSUE 9 acceptance: a million-node world holds overlay + node state in
# <= ~150 bytes per node.
MAX_BYTES_PER_NODE = 150.0
MILLION = 1_000_000
# apply_scale() turns streaming synthesis on at 100k nodes and up.
STREAMING_FLOOR = 100_000
# 1M world build wall-clock ceiling (generous: ~20x the measured value).
MAX_BUILD_SECONDS = 600.0
# asap(rw) footprint ceiling: half of the 116,315 B/node the 10k row
# measured before the ad-cache and advertiser state were slimmed.
MAX_ASAP_BYTES_PER_NODE = 58_000.0

REQUIRED_FIELDS = {
    "scale": NUM,
    "nodes": NUM,
    "algo": str,
    "queries": NUM,
    "streaming": bool,
    "world_build_seconds": NUM,
    "run_wall_seconds": NUM,
    "engine_events": NUM,
    "events_per_sec": NUM,
    "ns_per_event": NUM,
    "overlay_bytes": NUM,
    "state_bytes": NUM,
    "bytes_per_node": NUM,
    "peak_rss_bytes": NUM,
    "digest": str,
}


def fail(msg):
    print(f"check_bench_scale: FAIL: {msg}")
    sys.exit(1)


def check_row(i, row):
    for field, ty in REQUIRED_FIELDS.items():
        if field not in row:
            fail(f"row {i}: missing field {field!r}")
        if not isinstance(row[field], ty):
            fail(f"row {i}: field {field!r} has type "
                 f"{type(row[field]).__name__}")
    if row["scale"] <= 0 or row["nodes"] <= 0:
        fail(f"row {i}: non-positive scale/nodes")
    if row["nodes"] != row["scale"]:
        fail(f"row {i}: nodes != scale")
    if row["world_build_seconds"] <= 0 or row["run_wall_seconds"] <= 0:
        fail(f"row {i}: non-positive timings")
    if row["overlay_bytes"] <= 0:
        fail(f"row {i}: overlay_bytes must be positive")
    if row["bytes_per_node"] < 0 or row["peak_rss_bytes"] < 0:
        fail(f"row {i}: negative memory figure")
    if not row["digest"].startswith("0x"):
        fail(f"row {i}: digest must be a 0x hex string")
    int(row["digest"], 16)  # throws on malformed hex


def main():
    argv = sys.argv[1:]
    enforce = "--enforce" in argv
    argv = [a for a in argv if a != "--enforce"]
    if len(argv) != 1:
        print(__doc__)
        sys.exit(2)

    with open(argv[0]) as f:
        doc = json.load(f)

    if doc.get("schema") != "asap.bench_scale.v1":
        fail(f"unexpected schema {doc.get('schema')!r}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail("rows must be a non-empty array")

    for i, row in enumerate(rows):
        check_row(i, row)

    scales = sorted({int(r["scale"]) for r in rows})
    by_scale = {s: [r for r in rows if r["scale"] == s] for s in scales}
    for s, srows in by_scale.items():
        if not any(r["algo"] == "random-walk" for r in srows):
            fail(f"scale {s}: no random-walk row")
        for r in srows:
            want_stream = s >= STREAMING_FLOOR
            if r["streaming"] != want_stream:
                fail(f"scale {s} ({r['algo']}): streaming={r['streaming']}, "
                     f"expected {want_stream}")

    if enforce:
        if MILLION not in by_scale:
            fail("--enforce: no 1,000,000-node row")
        rw = [r for r in by_scale[MILLION] if r["algo"] == "random-walk"]
        row = rw[0]
        if row["bytes_per_node"] > MAX_BYTES_PER_NODE:
            fail(f"--enforce: 1M bytes_per_node {row['bytes_per_node']:.1f} "
                 f"> budget {MAX_BYTES_PER_NODE}")
        if row["world_build_seconds"] > MAX_BUILD_SECONDS:
            fail(f"--enforce: 1M world build took "
                 f"{row['world_build_seconds']:.1f}s "
                 f"> ceiling {MAX_BUILD_SECONDS}")
        asap = [r for r in rows if r["algo"] == "asap(rw)"]
        if not asap:
            fail("--enforce: no asap(rw) row")
        for r in asap:
            if r["bytes_per_node"] > MAX_ASAP_BYTES_PER_NODE:
                fail(f"--enforce: asap(rw) at {int(r['scale'])} nodes holds "
                     f"{r['bytes_per_node']:.1f} B/node > ceiling "
                     f"{MAX_ASAP_BYTES_PER_NODE:.0f}")
        print(f"check_bench_scale: OK (enforced: 1M row at "
              f"{row['bytes_per_node']:.1f} B/node, built in "
              f"{row['world_build_seconds']:.1f}s; asap(rw) at most "
              f"{max(r['bytes_per_node'] for r in asap):.1f} B/node; "
              f"{len(rows)} rows over scales {scales})")
    else:
        print(f"check_bench_scale: OK ({len(rows)} rows over "
              f"scales {scales})")


if __name__ == "__main__":
    main()
