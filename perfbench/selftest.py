"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the harness agree on every name, that
every job the workloads run has an expectation, that a deliberately
wrong expectation shows up in ``failed_share``, that the traced run
leaves every function it wrapped as it found it, and that the ledger's
self-time arithmetic is right on a synthetic nested span set.
"""

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import ledger  # noqa: E402
from workloads import WORKLOADS, build_objects  # noqa: E402

#: the quickest catalog case (13 runs, well under a second)
SMALL = "monitor-one-slot-buffer"


class TestTables(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(names, [w for w in WORKLOADS if w in names])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            list(harness.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [row[:3] for row in harness.PER_LAYER])

    def test_every_job_has_an_expectation(self):
        expected = harness.load_expected()
        for _kind, cases in WORKLOADS.values():
            for key in cases:
                self.assertIn(key, expected)


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0,10] encloses b [1,3] and c [4,8]; c encloses b [5,6];
        # then d [11,12] at top level
        ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 11.0, 12.0])
        book = ledger.Ledger(clock=lambda: next(ticks))
        for step in ("a", "b", None, "c", "b", None, None, None, "d", None):
            if step:
                book.enter(step)
            else:
                book.exit()
        self.assertEqual(book.self_s, {"a": 4.0, "b": 3.0, "c": 3.0,
                                       "d": 1.0})
        self.assertEqual(dict(book.calls), {"a": 1, "b": 2, "c": 1, "d": 1})

    def test_recursion_counts_each_second_once(self):
        # a [0,10] encloses a [2,5]: 10 s of a in total, not 13
        ticks = iter([0.0, 2.0, 5.0, 10.0])
        book = ledger.Ledger(clock=lambda: next(ticks))
        book.enter("a")
        book.enter("a")
        book.exit()
        book.exit()
        self.assertEqual(book.seconds("a"), 10.0)


class TestFailedShare(unittest.TestCase):
    def test_wrong_expectation_is_a_failed_job(self):
        objects = build_objects([SMALL])
        right = harness.load_expected()
        tally = harness.Tally(right)
        harness.oneshot_pass(objects, [SMALL], tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

        wrong = dict(right)
        wrong[SMALL] = dict(right[SMALL], runs=right[SMALL]["runs"] + 1)
        tally = harness.Tally(wrong)
        harness.oneshot_pass(objects, [SMALL], tally)
        self.assertEqual(tally.failed_share, 1.0)
        self.assertIn("runs is 13", tally.problems[0])


def _functions():
    """Every function bound in a repro module or one of its classes."""
    out = {}
    for mod in ledger._repro_modules():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType):
                out[(mod.__name__, attr)] = value
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    if isinstance(member, types.FunctionType):
                        out[(mod.__name__, attr, name)] = member
    return out


class TestWrappersRestored(unittest.TestCase):
    def test_originals_are_back_after_a_traced_pass(self):
        objects = build_objects([SMALL])
        tally = harness.Tally(harness.load_expected())
        harness.oneshot_pass(objects, [SMALL], tally)  # import everything
        before = _functions()
        book = ledger.Ledger()
        inst = ledger.install(book)
        try:
            self.assertNotEqual(_functions(), before)
            harness.oneshot_pass(objects, [SMALL], tally)
        finally:
            inst.restore()
        self.assertGreater(book.calls["checker"], 0)
        self.assertGreater(book.calls["sim.replay"], 0)
        self.assertGreater(book.counts["sim.steps"], 0)
        self.assertEqual(inst.leftovers(), [])
        self.assertEqual(ledger.stray_wrappers(), [])
        after = _functions()
        self.assertEqual(after.keys(), before.keys())
        for where, fn in before.items():
            self.assertIs(after[where], fn, where)
        self.assertEqual(tally.failed, 0)


if __name__ == "__main__":
    unittest.main()
