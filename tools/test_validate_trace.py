"""Tests for validate_trace.py: a malformed line fails as FILE:LINE with
exit 1 and no traceback, and one valid record of each type passes.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "validate_trace.py"
NODE_COUNTERS = [
    "ads_stored", "ads_evicted", "ads_invalidated", "confirms_sent",
    "confirms_positive", "confirms_timed_out", "confirm_retries",
    "stale_evictions", "trust_strikes", "quarantines", "queries_shed"]
# One record of each type, shaped like asap_sim's --trace-out and
# --counters-out rows.
VALID = [
    {"type": "query", "t": 4.5, "node": 1, "success": True,
     "local_hit": False, "response_s": 0.1, "bytes": 240, "messages": 4,
     "results": 2},
    {"type": "ad", "t": 0.4, "node": 9, "kind": "full", "messages": 90,
     "bytes": 7065},
    {"type": "confirm", "t": 4, "node": 1, "source": 2, "outcome": "timeout"},
    {"type": "churn", "t": 4, "node": 2000, "transition": "rejoin"},
    {"type": "fault", "t": 480, "kind": "storm", "node": 4294967295},
    {"type": "retry", "t": 4, "node": 5, "source": 6, "attempt": 2},
    {"type": "stale-evict", "t": 4, "node": 5, "source": 6},
    {"type": "trust-strike", "t": 1, "node": 2, "source": 8,
     "kind": "implausible"},
    {"type": "quarantine", "t": 4, "node": 2, "source": 9, "phase": "exit"},
    {"type": "query-shed", "t": 4, "node": 12, "depth": 33},
    {"type": "ad-round", "t": 9, "node": 7, "emitted": 3, "spilled": 1,
     "bytes": 1800},
    {"type": "counters", "t": 60, "categories": {}, "ads": {},
     "confirms": {}, "faults": {}},
    {"type": "node-counters", "node": 0, **dict.fromkeys(NODE_COUNTERS, 0)},
]
CHURN = '{"type":"churn","t":%s,"node":1,"transition":"join"}\n'


class ValidateTrace(unittest.TestCase):
    def run_on(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "trace.jsonl")
            with open(path, "wb") as f:
                f.write(data)
            return path, subprocess.run([sys.executable, str(SCRIPT), path],
                                        capture_output=True, text=True)

    def assert_fails_at(self, data, lineno, reason):
        path, proc = self.run_on(data)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertTrue(proc.stderr.startswith(f"{path}:{lineno}: "),
                        proc.stderr)
        self.assertIn(reason, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_one_valid_record_of_each_type_passes(self):
        path, proc = self.run_on(
            "".join(json.dumps(r) + "\n" for r in VALID).encode())
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn(f"{path}: OK ({len(VALID)} records", proc.stdout)

    def test_malformed_lines_fail_at_their_line(self):
        good = (CHURN % 1).encode()
        cases = [
            (b'{"type": ["query"], "t": 1}\n', "unknown record type"),
            (b'{"type":"churn\xff"}\n', "not valid UTF-8"),
            ((CHURN % "NaN").encode(), "NaN is not a finite number"),
            ((CHURN % "Infinity").encode(), "Infinity is not a finite"),
            ((CHURN % "-Infinity").encode(), "-Infinity is not a finite"),
            ((CHURN % "1e999").encode(), "1e999 is not a finite number"),
            (b"[" * 100000 + b"\n", "not valid JSON"),
            ((CHURN % "true").encode(), "virtual time 't'"),
        ]
        for line, reason in cases:
            with self.subTest(reason=reason):
                self.assert_fails_at(good + line, 2, reason)


if __name__ == "__main__":
    unittest.main()
