"""BENCHMARK.json: loading, validation and the result line.

BENCHMARK.json (repository root) names the workloads and every metric the
benchmark prints, with its unit. The benchmark refuses to print a result
whose metric set differs from the declared one.
"""

import json
import math
import re
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BOUND = 0.25


def load(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def validate(spec):
    """Returns a list of problems with a parsed BENCHMARK.json (empty = ok)."""
    errors = []
    if set(spec) != TOP_KEYS:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(TOP_KEYS)}")
        return errors

    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1-32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errors.append("command may not name absolute or parent paths")

    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p) or
                    p.startswith("/") or ".." in p.split("/")):
                errors.append(f"bad path {p!r}")

    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and
            1 <= rs <= 60):
        errors.append("run_seconds must be a whole number in [1, 60]")

    names = []
    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("workloads must list 2-8 entries")
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)} != ['name', 'why']")
            continue
        names.append(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and
                "\n" not in why):
            errors.append(f"workload {w['name']!r}: why must be one line "
                          "of <= 200 characters")

    e2e = spec["end_to_end"]
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        errors.append("end_to_end must list 1-16 metrics")
        e2e = []
    bounds = {}
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end_to_end keys {sorted(m)} wrong")
            continue
        b = m["bound"]
        if (isinstance(b, (int, float)) and not isinstance(b, bool) and
                0 < b <= MAX_BOUND):
            bounds[m["name"]] = b
        else:
            errors.append(f"{m['name']}: bound must be in (0, {MAX_BOUND}]")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s" and
            setup[0].get("better") == "lower"):
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif "setup_s" in bounds and max(bounds.values()) > bounds["setup_s"]:
        errors.append("setup_s must carry the largest bound")

    per_layer = spec["per_layer"]
    if not (isinstance(per_layer, list) and 1 <= len(per_layer) <= 128):
        errors.append("per_layer must list 1-128 metrics")
        per_layer = []
    for m in per_layer:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer keys {sorted(m)} wrong")

    for m in list(e2e) + list(per_layer):
        names.append(m.get("name"))
        if not UNIT_RE.match(str(m.get("unit", ""))):
            errors.append(f"{m.get('name')}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("higher", "lower"):
            errors.append(f"{m.get('name')}: better must be higher/lower")
    for n in names:
        if not (isinstance(n, str) and NAME_RE.match(n)):
            errors.append(f"bad name {n!r}")
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        errors.append(f"names used more than once: {dup}")
    return errors


def result_line(spec, trace, correct, attempted, failed, values):
    """The benchmark's last output line, as a JSON string.

    `values` maps every metric of the selected group (end_to_end for
    trace 0, per_layer for trace 1) to a finite number; any other metric
    set is an error.
    """
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"undeclared {extra}")
    for name, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ValueError(f"{name}: not a finite number: {v!r}")
    if not (isinstance(attempted, int) and attempted >= 1 and
            isinstance(failed, int) and 0 <= failed <= attempted):
        raise ValueError(f"bad attempted/failed {attempted}/{failed}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in group}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": metrics})
