"""The traced replay copy against run_experiment, and the output checks.

DigestEquality builds perfbench_sim (into .bench_build/, like run.py)
and runs its self-test: on a tiny world of each workload shape — faults
off, streaming trace, and byzantine faults with storm queries — the
traced copy of the replay loop must reproduce run_experiment's digest
and metrics bit for bit.
"""

import io
import json
import subprocess
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402


class DigestEquality(unittest.TestCase):
    def test_traced_copy_matches_run_experiment_on_tiny_worlds(self):
        run.build()
        proc = subprocess.run([str(run.BINARY), "selftest"],
                              capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(len(lines), 3)
        self.assertTrue(all(line.endswith("  ok") for line in lines))


def result(**overrides):
    res = {"mode": "untraced", "digest": "a247926138dce54c",
           "num_queries": 100, "queries_replayed": 100, "successes": 50,
           "success_rate": 0.5, "response_ms": 200.0,
           "response_p99_ms": 600.0, "search_cost_kb": 12.0,
           "system_load_bps": 300.0, "audited": False, "audit_violations": 0, "audit_first": ""}
    res.update(overrides)
    return res


class OutputChecks(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(run.check_run(result(), 100), [])

    def test_missing_queries_fail(self):
        self.assertTrue(run.check_run(result(queries_replayed=99), 100))
        self.assertTrue(run.check_run(result(), 101))

    def test_audit_violations_fail(self):
        audited = result(mode="audited", audited=True)
        self.assertEqual(run.check_run(audited, 100), [])
        self.assertTrue(run.check_run(dict(audited, audit_violations=1),
                                      100))
        self.assertTrue(run.check_run(dict(audited, audited=False), 100))

    def test_degenerate_outputs_fail(self):
        self.assertTrue(run.check_run(result(digest="0" * 16), 100))
        self.assertTrue(run.check_run(result(success_rate=0.0), 100))
        self.assertTrue(run.check_run(result(search_cost_kb=0.0), 100))

    def test_runs_of_one_seed_must_agree(self):
        a = result()
        self.assertEqual(run.check_same([a, result(mode="traced")]), [])
        self.assertTrue(run.check_same([a, result(digest="1" * 16)]))
        self.assertTrue(run.check_same([a, result(response_ms=200.5)]))


class SimulatorFailure(unittest.TestCase):
    def test_failed_simulator_marks_every_query_failed(self):
        def failing(args, deadline):
            raise run.SimFailed("perfbench_sim exited 1")

        out = io.StringIO()
        with mock.patch.object(run, "build", return_value=False), \
                mock.patch.object(run, "binary_id", return_value="x"), \
                mock.patch.object(run, "run_sim", failing), \
                redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "paper-flooding", "--trace", "1"])
        line = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(line["correct"])
        self.assertEqual(line["attempted"],
                         run.queries_for("paper-flooding", 10))
        self.assertEqual(line["failed"], line["attempted"])
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in run.contract.load(
                             run.ROOT)["per_layer"]})


if __name__ == "__main__":
    unittest.main()
