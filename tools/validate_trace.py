#!/usr/bin/env python3
"""Validate asap_sim observability JSONL files (DESIGN.md section 9).

Usage: validate_trace.py FILE [FILE...]

Each line must be a standalone JSON object whose "type" selects a record
schema. Trace files carry query/ad/confirm/churn spans; counter files
carry counters snapshots and node-counters rows. A line that is not
UTF-8 or not strict JSON (NaN, Infinity or a number too large to be
finite) is malformed too. Exits 1 with a FILE:LINE message on the first
malformed line and prints a per-file record summary otherwise.
"""
import collections
import json
import math
import sys

NUM = (int, float)

# type -> {field: expected python types}; "t" is checked for every record.
SCHEMAS = {
    "query": {
        "node": NUM,
        "success": bool,
        "local_hit": bool,
        "response_s": NUM,
        "bytes": NUM,
        "messages": NUM,
        "results": NUM,
    },
    "ad": {"node": NUM, "kind": str, "messages": NUM, "bytes": NUM},
    "confirm": {"node": NUM, "source": NUM, "outcome": str},
    "churn": {"node": NUM, "transition": str},
    "fault": {"node": NUM, "kind": str},
    "retry": {"node": NUM, "source": NUM, "attempt": NUM},
    "stale-evict": {"node": NUM, "source": NUM},
    "trust-strike": {"node": NUM, "source": NUM, "kind": str},
    "quarantine": {"node": NUM, "source": NUM, "phase": str},
    "query-shed": {"node": NUM, "depth": NUM},
    "ad-round": {"node": NUM, "emitted": NUM, "spilled": NUM, "bytes": NUM},
    "counters": {
        "categories": dict,
        "ads": dict,
        "confirms": dict,
        "faults": dict,
    },
    "node-counters": {
        "node": NUM,
        "ads_stored": NUM,
        "ads_evicted": NUM,
        "ads_invalidated": NUM,
        "confirms_sent": NUM,
        "confirms_positive": NUM,
        "confirms_timed_out": NUM,
        "confirm_retries": NUM,
        "stale_evictions": NUM,
        "trust_strikes": NUM,
        "quarantines": NUM,
        "queries_shed": NUM,
    },
}
# (type, field) -> allowed values; "kind" means different things to "ad"
# and "fault" records, so enums are keyed per record type.
ENUMS = {
    ("ad", "kind"): {"full", "patch", "refresh", "delta", "packed"},
    ("confirm", "outcome"): {"positive", "negative", "timeout"},
    ("churn", "transition"): {"join", "leave", "rejoin"},
    ("fault", "kind"): {
        "crash", "detect", "partition", "heal", "burst", "burst-end",
        "storm", "storm-end",
    },
    ("trust-strike", "kind"): {"false-positive", "timeout", "implausible"},
    ("quarantine", "phase"): {"enter", "exit"},
}


def finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def validate_file(path):
    counts = collections.Counter()
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.rstrip(b"\n")
            line = raw.decode("utf-8", "replace")

            def fail(msg):
                sys.exit(f"{path}:{lineno}: {msg}\n  {line}")

            try:
                rec = json.loads(raw.decode("utf-8"), parse_constant=finite,
                                 parse_float=finite)
            except UnicodeDecodeError as e:
                fail(f"not valid UTF-8: {e.reason} at byte {e.start}")
            except (ValueError, RecursionError) as e:
                fail(f"not valid JSON: {e}")
            if not isinstance(rec, dict):
                fail("record is not a JSON object")
            rtype = rec.get("type")
            schema = SCHEMAS.get(rtype) if isinstance(rtype, str) else None
            if schema is None:
                fail(f"unknown record type {rtype!r}")
            # node-counters rows are emitted by finalize() without a time.
            if rtype != "node-counters":
                t = rec.get("t")
                if isinstance(t, bool) or not isinstance(t, NUM) or t < 0:
                    fail("missing or negative virtual time 't'")
            for field, types in schema.items():
                value = rec.get(field)
                # bool is an int subclass; keep numeric fields strict.
                if types is NUM and isinstance(value, bool):
                    fail(f"field {field!r} is a bool, expected a number")
                if not isinstance(value, types):
                    fail(f"field {field!r} missing or mistyped: {value!r}")
                allowed = ENUMS.get((rtype, field))
                if allowed is not None and value not in allowed:
                    fail(f"field {field!r} has unknown value {value!r}")
            counts[rtype] += 1
    if not counts:
        sys.exit(f"{path}: no records")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{path}: OK ({sum(counts.values())} records: {summary})")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip())
    for path in argv[1:]:
        validate_file(path)


if __name__ == "__main__":
    main(sys.argv)
