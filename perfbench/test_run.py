#!/usr/bin/env python3
"""Tests of the benchmark's own statistics, output parsing and checks.

    python3 perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import steadiness  # noqa: E402

PIN = {"digest": "0x00000000000000aa", "events": 1000, "records_lost": 3,
       "setup_digest": "0x00000000000000bb"}


def outcome(**over):
    base = {"digest": "0x00000000000000aa", "events": 1000, "frames_dropped": 0,
            "orders_sent": 5, "acks": 4, "feed_messages": 9, "records_lost": 3}
    base.update(over)
    return base


class ParseTest(unittest.TestCase):
    def test_last_json_line_wins(self):
        out = "building\n{\"a\": 1}\nnoise\n{\"b\": 2}\n\n"
        self.assertEqual(run.parse_last_json(out), {"b": 2})

    def test_non_json_last_line_is_no_result(self):
        self.assertIsNone(run.parse_last_json("{\"a\": 1}\npanicked at main.rs"))
        self.assertIsNone(run.parse_last_json(""))
        self.assertIsNone(run.parse_last_json("[1, 2]"))

    def test_seed_ranges(self):
        self.assertEqual(list(run.parse_seeds("3-5")), [3, 4, 5])
        self.assertEqual(list(run.parse_seeds("7")), [7])

    def test_a_run_covers_consecutive_scenarios(self):
        self.assertEqual(run.scenario_seeds(10), list(range(10, 10 + run.SCENARIOS)))


class CheckTest(unittest.TestCase):
    def test_pinned_outcome_passes(self):
        self.assertEqual(run.check_outcome("d1-leafspine", outcome(), PIN), [])

    def test_wrong_pinned_digest_is_caught(self):
        wrong = dict(PIN, digest="0x00000000000000ab")
        problems = run.check_outcome("d1-leafspine", outcome(), wrong)
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_event_count_and_lost_records_are_pinned(self):
        self.assertTrue(run.check_outcome("d3-l1-fanout", outcome(events=999), PIN))
        self.assertTrue(run.check_outcome("d3-l1-fanout", outcome(records_lost=0), PIN))

    def test_report_invariants(self):
        self.assertTrue(run.check_outcome("d1-leafspine", outcome(frames_dropped=1), None))
        self.assertTrue(run.check_outcome("d1-leafspine", outcome(orders_sent=0), None))
        self.assertTrue(run.check_outcome("d3-l1-fanout", outcome(acks=0), None))
        # The swarm has no market: zero orders are correct there.
        self.assertEqual(run.check_outcome("metro-swarm", outcome(orders_sent=0, acks=0,
                                                                 feed_messages=0), None), [])

    def test_repeat_must_match_reference(self):
        self.assertTrue(run.check_outcome("metro-swarm", outcome(digest="0x1"), None,
                                          outcome()))

    def test_tally_counts_failed_operations(self):
        t = run.Tally()
        t.record("a", [])
        t.record("b", ["x", "y"])
        r = t.result({})
        self.assertEqual((r["correct"], r["attempted"], r["failed"]), (False, 2, 1))

    def test_swarm_layer_counts_must_be_zero(self):
        names = ["switch.commodity.frames", "switch.l1s.copy_ns", "sim.events"]
        trace = {"metrics": {"switch.commodity.frames": 0, "switch.l1s.copy_ns": 412.5,
                             "sim.events": 10}}
        self.assertEqual(run.check_traced("metro-swarm", trace, names), [])
        trace["metrics"]["switch.commodity.frames"] = 1
        self.assertEqual(len(run.check_traced("metro-swarm", trace, names)), 1)
        self.assertEqual(run.check_traced("d1-leafspine", trace, names), [])

    def test_missing_layer_metric_is_caught(self):
        trace = {"metrics": {"sim.events": 10}}
        problems = run.check_traced("d1-leafspine", trace, ["sim.events", "sim.frames"])
        self.assertEqual(len(problems), 1)
        self.assertIn("sim.frames", problems[0])


class StatisticsTest(unittest.TestCase):
    def test_summary_uses_python_quartiles(self):
        s = steadiness.summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        # statistics.quantiles(n=4), exclusive method: 2.75, 5.5, 8.25.
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["spread"], 5.5 / 5.5)
        self.assertEqual((s["min"], s["max"], s["n"]), (1.0, 10.0, 10))

    def test_drift_is_signed_by_direction(self):
        self.assertAlmostEqual(steadiness.drift(1.0, 1.1, "lower"), 0.1)
        self.assertAlmostEqual(steadiness.drift(1.0, 1.1, "higher"), -0.1)

    def test_verdicts(self):
        metric = {"name": "wall_s", "bound": 0.15}
        sets = lambda *spreads: [{"spread": s} for s in spreads]  # noqa: E731
        self.assertEqual(steadiness.verdict(metric, sets(0.04, 0.03), [0.01]), "steady")
        self.assertEqual(steadiness.verdict(metric, sets(0.06), []), "within bound")
        self.assertEqual(steadiness.verdict(metric, sets(0.01, 0.2), [0.0]), "too noisy")
        self.assertEqual(steadiness.verdict(metric, sets(0.01, 0.01), [0.2]), "too noisy")
        # setup_s is held to the drift rule only.
        setup = {"name": "setup_s", "bound": 0.25}
        self.assertEqual(steadiness.verdict(setup, sets(0.5), [0.01]), "steady")


if __name__ == "__main__":
    unittest.main()
