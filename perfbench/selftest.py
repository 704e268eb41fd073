"""Tests of the benchmark's own arithmetic, plus a smoke run of every workload.

    python3 perfbench/selftest.py          # everything, about a minute
    python3 perfbench/selftest.py -k Span  # unittest's own filters work
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Recorder, Span, Target, covered_length, instrument, self_times, summarize  # noqa: E402
from workloads import CharRoutes, DeskProbe, Layers, is_prime, tau3_small  # noqa: E402


def span(id, start, end, parent=None, attrs=None):
    s = Span(id, f"s{id}", start, parent, "r")
    s.end = end
    s.attrs = attrs
    return s


def run_bench(*args, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return p, (json.loads(p.stdout.strip().splitlines()[-1]) if p.returncode == 0 else None)


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertAlmostEqual(covered_length([(1, 3), (2, 5), (7, 8)], 0, 10), 5.0)
        self.assertAlmostEqual(covered_length([(0, 4), (1, 2)], 0, 10), 4.0)
        self.assertAlmostEqual(covered_length([(-5, 2), (9, 20)], 0, 10), 3.0)  # clipped
        self.assertEqual(covered_length([], 0, 10), 0.0)

    def test_nested_children(self):
        # root [0,10] > child [1,6] > grandchild [2,5]; child [7,9]
        spans = [span(0, 0, 10), span(1, 1, 6, 0), span(2, 2, 5, 1), span(3, 7, 9, 0)]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10 - 5 - 2)
        self.assertAlmostEqual(own[1], 5 - 3)
        self.assertAlmostEqual(own[2], 3)
        self.assertAlmostEqual(own[3], 2)

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, 0, 10), span(1, 1, 6, 0), span(2, 4, 8, 0)]
        self.assertAlmostEqual(self_times(spans)[0], 10 - 7)

    def test_summary_sums_per_name(self):
        spans = [span(0, 0, 4), span(1, 1, 2, 0)]
        spans[1].name = "s0"
        row = summarize(spans)["s0"]
        self.assertEqual(row["calls"], 2)
        self.assertAlmostEqual(row["total_s"], 5.0)
        self.assertAlmostEqual(row["self_s"], 4.0)

    def test_recorder_nests_and_tags_runs(self):
        rec = Recorder()
        with rec.run("a"):
            with rec.span("outer"):
                with rec.span("inner"):
                    pass
        outer, inner = rec.of_run("a")
        self.assertIsNone(outer.parent)
        self.assertEqual(inner.parent, outer.id)
        self.assertLessEqual(outer.start, inner.start)
        self.assertLessEqual(inner.end, outer.end)


class Ratios(unittest.TestCase):
    def test_distinct_frac_has_calls_as_base(self):
        spans = [span(i, i, i + 1, attrs={"key": k}) for i, k in enumerate("aabab")]
        for s in spans:
            s.name = "f"
        lay = Layers(spans, wall=10.0)
        self.assertEqual(lay.calls("f"), 5)
        self.assertAlmostEqual(lay.distinct_frac("f"), 2 / 5)
        self.assertEqual(lay.distinct_frac("missing"), 0.0)

    def test_share_is_self_time_over_wall(self):
        spans = [span(0, 0, 4), span(1, 1, 2, 0)]
        spans[0].name, spans[1].name = "arith.outer", "weights.inner"
        lay = Layers(spans, wall=8.0)
        self.assertAlmostEqual(lay.share("arith"), 3 / 8)
        self.assertAlmostEqual(lay.share("weights"), 1 / 8)


class Failures(unittest.TestCase):
    def test_tally_counts_failed_over_attempted(self):
        t = run.Tally()
        for problems in ([], ["bad"], [], []):
            t.record(problems)
        self.assertEqual((t.attempted, t.failed), (4, 1))
        self.assertAlmostEqual(t.failed_frac, 0.25)

    def test_exceptions_and_failed_checks_both_count(self):
        class W:
            def check(self, inp, outs, ref):
                return [] if outs["b"] == 2 else [f"{outs['b']} != 2"]

        def boom(done):
            raise ValueError("x")

        t = run.Tally()
        check = run.Checker(W(), None, None, t)
        times = {}
        for second in (lambda done: done["a"] + 1, lambda done: 3, boom):
            check(*run.run_cycle([("a", lambda done: 1), ("b", second)], times))
        self.assertEqual((t.attempted, t.failed), (3, 2))
        self.assertEqual((len(times["a"]), len(times["b"])), (3, 3))  # the raising call is timed too

    def test_a_bypassed_layer_that_runs_fails(self):
        ran = span(0, 0, 1)
        ran.name = "weights.values"
        self.assertEqual(run.bypass_problems(CharRoutes(), Layers([], wall=1.0)), [])
        self.assertEqual(len(run.bypass_problems(CharRoutes(), Layers([ran], wall=1.0))), 1)
        self.assertEqual(run.bypass_problems(DeskProbe(), Layers([ran], wall=1.0)), [])

    def test_repeat_outputs_reuse_a_passing_verdict(self):
        calls = []

        class W:
            def check(self, inp, out, ref):
                calls.append(out)
                return []

            def same(self, a, b):
                return a == b

        check = run.Checker(W(), None, None, run.Tally())
        for out in (5, 5, 6):
            check(out, [])
        self.assertEqual(calls, [5, 6])


class Wrappers(unittest.TestCase):
    def test_instrument_times_aliases_and_restores(self):
        from tauvar import arith, variance

        original = arith.tau_k_segment
        rec = Recorder()
        with instrument(rec, [Target(arith, "tau_k_segment", "arith.tau_k_segment")]):
            self.assertIsNot(variance.tau_k_segment, original)  # alias wrapped too
            variance.compute_class_sums(2, 7, 100.0, "sharp")
        self.assertIs(arith.tau_k_segment, original)
        self.assertIs(variance.tau_k_segment, original)
        self.assertEqual([s.name for s in rec.spans], ["arith.tau_k_segment"])

    def test_generator_spans_one_per_advance(self):
        from tauvar import characters

        rec = Recorder()
        gen = Target(characters, "enumerate_characters", "chars", generator=True)
        with instrument(rec, [gen]):
            n = sum(1 for _ in characters.enumerate_characters(7))
        self.assertEqual(n, 6)
        self.assertEqual(len(rec.spans), 7)  # six items and the final StopIteration
        self.assertEqual(rec.spans[-1].attrs, {"exhausted": True})


class Setup(unittest.TestCase):
    def test_fresh_interpreter_reports_the_cold_weight_call(self):
        elapsed, weight_s = run.measure_setup(DeskProbe.setup_code)
        self.assertGreater(weight_s, 0.0)
        self.assertGreater(elapsed, weight_s)
        self.assertIsNone(run.measure_setup(CharRoutes.setup_code)[1])


class InputHelpers(unittest.TestCase):
    def test_is_prime_against_trial_division(self):
        small = [n for n in range(2, 2000) if all(n % p for p in range(2, int(n**0.5) + 1))]
        self.assertEqual([n for n in range(2000) if is_prime(n)], small)
        self.assertTrue(is_prime(2**61 - 1))
        self.assertFalse(is_prime((2**31 - 1) * (2**61 - 1)))

    def test_tau3_small(self):
        from tauvar.arith import tau_k_of

        for m in list(range(1, 300)) + [2**19 - 1, 720720]:
            self.assertEqual(tau3_small(m), tau_k_of(3, m))


class Smoke(unittest.TestCase):
    """Every workload on reduced inputs, against the names in BENCHMARK.json."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_metrics(self, got, declared):
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_every_workload_end_to_end(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOAD_NAMES))
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                p, res = run_bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke")
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertTrue(res["correct"], p.stderr)
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assert_metrics(res["metrics"], self.spec["end_to_end"])

    def test_traced_run(self):
        p, res = run_bench("--workload", "far-tau", "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertTrue(res["correct"], p.stderr)
        self.assert_metrics(res["metrics"], self.spec["per_layer"])
        self.assertIn("workers=1", p.stdout)

    def test_same_seed_same_inputs(self):
        from workloads import WORKLOADS

        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            for name, wl in WORKLOADS.items():
                a = wl.inputs(11, False, Path(tmp))
                b = wl.inputs(11, False, Path(tmp))
                self.assertEqual(repr(a), repr(b), name)

    def test_fails_without_sources(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "far-tau", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
