"""Span arithmetic on synthetic span trees, and span-name bookkeeping."""

import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
from layers import Span  # noqa: E402

MS = 1_000_000  # ns


def tree():
    """A world build with two stages, then one replay event whose engine
    segment and query dispatch leave 1 ms of the event's own bookkeeping.

        world.build   [0, 10)   children net.build [0, 4), trace.gen [5, 9)
        replay.event  [10, 20)  children sim.engine [10, 13),
                                         search.query [14, 20)
        (wall 25 ms: 5 ms after the last span is uncovered)
    """
    return [
        Span(0, -1, "world.build", -1, 0, 10 * MS),
        Span(1, 0, "net.build", -1, 0, 4 * MS),
        Span(2, 0, "trace.gen", -1, 5 * MS, 9 * MS),
        Span(3, -1, "replay.event", 7, 10 * MS, 20 * MS),
        Span(4, 3, "sim.engine", 7, 10 * MS, 13 * MS),
        Span(5, 3, "search.query", 7, 14 * MS, 20 * MS),
    ]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        self.assertEqual(layers.self_times_ns(tree()),
                         [2 * MS, 4 * MS, 4 * MS, 1 * MS, 3 * MS, 6 * MS])

    def test_self_times_sum_to_top_level_time(self):
        spans = tree()
        top = sum(s.duration_ns for s in spans if s.parent < 0)
        self.assertEqual(sum(layers.self_times_ns(spans)), top)

    def test_grandchildren_do_not_reduce_grandparent(self):
        spans = [Span(0, -1, "a", -1, 0, 10), Span(1, 0, "b", -1, 0, 8),
                 Span(2, 1, "c", -1, 0, 8)]
        self.assertEqual(layers.self_times_ns(spans), [2, 0, 8])

    def test_coverage_is_top_level_time_over_wall(self):
        self.assertAlmostEqual(layers.coverage(tree(), 25 * MS), 20 / 25)
        self.assertEqual(layers.coverage(tree(), 0), 0.0)

    def test_by_name_totals(self):
        spans = tree() + [Span(6, -1, "replay.event", 8, 20 * MS, 22 * MS)]
        st = layers.by_name(spans)
        self.assertEqual(st["replay.event"].count, 2)
        self.assertEqual(st["replay.event"].total_ns, 12 * MS)
        self.assertEqual(st["replay.event"].self_ns, 3 * MS)

    def test_layer_times_and_shares(self):
        m = layers.layer_times(tree(), 25 * MS)
        self.assertAlmostEqual(m["net.build_s"], 0.004)
        self.assertAlmostEqual(m["net.build_share"], 4 / 25)
        self.assertAlmostEqual(m["sim.engine_s"], 0.003)
        self.assertAlmostEqual(m["search.query_s"], 0.006)
        self.assertEqual(m["overlay.churn_s"], 0.0)  # absent layer
        for metric in layers.TIME_METRICS:
            self.assertIn(metric[:-2] + "_share", m)

    def test_percentile_interpolates_like_the_simulator(self):
        self.assertEqual(layers.percentile([], 0.5), 0.0)
        self.assertEqual(layers.percentile([3.0], 0.99), 3.0)
        self.assertAlmostEqual(layers.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertAlmostEqual(layers.percentile(list(range(101)), 0.99),
                               99.0)

    def test_csv_round_trip(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "spans.csv"
            rows = ["id,parent,name,query,start_ns,end_ns"]
            rows += [f"{s.id},{s.parent},{s.name},{s.query},{s.start_ns},"
                     f"{s.end_ns}" for s in tree()]
            path.write_text("\n".join(rows) + "\n")
            self.assertEqual(layers.read_spans(path), tree())


class SpanNames(unittest.TestCase):
    def test_every_recorded_span_is_accounted_for(self):
        source = (HERE.parent / "src" / "traced_run.cpp").read_text()
        recorded = set(re.findall(r'scope\("([a-z_.]+)"\)', source))
        recorded |= set(re.findall(r'return "([a-z_.]+)";', source))
        recorded |= set(re.findall(r'event_span\(spans, "([a-z_.]+)"\)',
                                   source))
        metric_spans = {n for names in layers.TIME_METRICS.values()
                        for n in names}
        metric_spans |= set(layers.INCLUSIVE_METRICS.values())
        known = metric_spans | layers.OTHER_SPANS
        self.assertFalse(recorded - known, "spans without a layer")
        self.assertFalse(known - recorded, "layers without a span")


if __name__ == "__main__":
    unittest.main()
