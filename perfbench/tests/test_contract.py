"""Metric-name and unit validation of BENCHMARK.json and result lines."""

import copy
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import contract  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = contract.load(HERE.parent.parent)


class Spec(unittest.TestCase):
    def test_repository_spec_is_valid(self):
        self.assertEqual(contract.validate(SPEC), [])

    def test_workloads_are_the_benchmark_workloads(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.QUERIES_PER_10_S))

    def invalid(self, mutate):
        spec = copy.deepcopy(SPEC)
        mutate(spec)
        return contract.validate(spec)

    def test_rejects_bad_metric_names(self):
        for bad in ["", "_x", ".x", "x y", "x/y", "a" * 65, "é"]:
            with self.subTest(name=bad):
                self.assertTrue(self.invalid(
                    lambda s: s["per_layer"][0].update(name=bad)))

    def test_accepts_name_alphabet(self):
        spec = copy.deepcopy(SPEC)
        spec["per_layer"][0]["name"] = "a1.b_c-d"
        self.assertEqual(contract.validate(spec), [])

    def test_rejects_bad_units(self):
        for bad in ["", "m s", "a" * 17, "µs", "ms!"]:
            with self.subTest(unit=bad):
                self.assertTrue(self.invalid(
                    lambda s: s["end_to_end"][1].update(unit=bad)))

    def test_accepts_unit_alphabet(self):
        for good in ["ms", "1/s", "B/node/s", "%", "ns/event", "count"]:
            spec = copy.deepcopy(SPEC)
            spec["end_to_end"][1]["unit"] = good
            self.assertEqual(contract.validate(spec), [], good)

    def test_rejects_duplicate_names(self):
        self.assertTrue(self.invalid(lambda s: s["per_layer"].append(
            {"name": "setup_s", "unit": "s", "better": "lower"})))

    def test_rejects_bounds_out_of_range(self):
        for bad in [0, -0.1, 0.26, "0.1"]:
            with self.subTest(bound=bad):
                self.assertTrue(self.invalid(
                    lambda s: s["end_to_end"][1].update(bound=bad)))

    def test_setup_s_is_required_and_carries_the_largest_bound(self):
        self.assertTrue(self.invalid(lambda s: s["end_to_end"].pop(0)))
        self.assertTrue(self.invalid(
            lambda s: s["end_to_end"][0].update(bound=0.01)))

    def test_rejects_extra_keys_and_bad_better(self):
        self.assertTrue(self.invalid(lambda s: s.update(seed=42)))
        self.assertTrue(self.invalid(
            lambda s: s["per_layer"][0].update(better="up")))
        self.assertTrue(self.invalid(
            lambda s: s["workloads"][0].update(why="two\nlines")))

    def test_rejects_paths_leaving_the_repository(self):
        self.assertTrue(self.invalid(lambda s: s.update(paths=["../x"])))
        self.assertTrue(self.invalid(lambda s: s.update(paths=["/abs"])))
        self.assertTrue(self.invalid(
            lambda s: s["command"].append("/usr/bin/x")))


class ResultLine(unittest.TestCase):
    def values(self, trace):
        group = SPEC["per_layer" if trace else "end_to_end"]
        return {m["name"]: 1.5 for m in group}

    def test_prints_every_metric_with_its_unit(self):
        line = json.loads(contract.result_line(SPEC, 0, True, 10, 0,
                                               self.values(0)))
        self.assertEqual(set(line),
                         {"correct", "attempted", "failed", "metrics"})
        for m in SPEC["end_to_end"]:
            self.assertEqual(line["metrics"][m["name"]],
                             {"value": 1.5, "unit": m["unit"]})

    def test_rejects_missing_or_undeclared_metrics(self):
        v = self.values(1)
        v.pop(next(iter(v)))
        with self.assertRaises(ValueError):
            contract.result_line(SPEC, 1, True, 10, 0, v)
        v = dict(self.values(0), extra=1.0)
        with self.assertRaises(ValueError):
            contract.result_line(SPEC, 0, True, 10, 0, v)

    def test_rejects_non_finite_values_and_bad_counts(self):
        v = dict(self.values(0), run_s=float("nan"))
        with self.assertRaises(ValueError):
            contract.result_line(SPEC, 0, True, 10, 0, v)
        with self.assertRaises(ValueError):
            contract.result_line(SPEC, 0, True, 0, 0, self.values(0))
        with self.assertRaises(ValueError):
            contract.result_line(SPEC, 0, False, 10, 11, self.values(0))


class PerLayerNames(unittest.TestCase):
    def test_declared_per_layer_metrics_are_the_ones_computed(self):
        source = (HERE.parent / "src" / "traced_run.cpp").read_text()
        emitted = set(re.findall(r'\{"([a-z_.]+)",', source))
        emitted |= set(layers.layer_times([], 1))
        emitted |= set(run.DERIVED_METRICS)
        declared = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(declared, emitted)


if __name__ == "__main__":
    unittest.main()
