"""The round loop and the result object, on fake workloads: op counts,
and a round whose op raises still ends in a result that says so."""

import time
import unittest

import run
import spec
import tracing
from workloads import Workload


class Quick(Workload):
    name = "quick"
    warmup_ops = 2
    timed_ops = 5
    min_timed_ops = 3
    raise_at = None

    def build(self):
        pass

    def op(self, k):
        if k == self.raise_at:
            raise RuntimeError("boom")
        time.sleep(0.002)
        return k

    def check(self, k, result):
        return [], {}


def round_of(workload, trace=False, seconds=0.0):
    rec = tracing.Recorder()
    record = run.measure(workload, rec, trace, seconds, time.perf_counter())
    record["peak_rss_mb"] = 1.0  # what child_main adds from getrusage
    return record


class OpCounts(unittest.TestCase):
    def test_unbudgeted_round_runs_exactly_the_stated_ops(self):
        record = round_of(Quick(0, 0))
        self.assertEqual(len(record["op_s_samples"]), Quick.timed_ops)
        self.assertEqual(record["attempted"], Quick.warmup_ops + Quick.timed_ops)
        self.assertEqual((record["failed"], record["failures"]), (0, []))

    def test_budgeted_round_keeps_its_floor_and_its_budget(self):
        self.assertEqual(len(round_of(Quick(0, 0), seconds=1e-9)["op_s_samples"]), Quick.min_timed_ops)
        samples = round_of(Quick(0, 0), seconds=0.05)["op_s_samples"]
        self.assertGreater(len(samples), Quick.min_timed_ops)
        self.assertLessEqual(sum(samples), 0.05)


class RaisingOp(unittest.TestCase):
    def raising(self, at):
        workload = Quick(0, 0)
        workload.raise_at = at
        return workload

    def test_first_op_raising_in_a_traced_round_still_reports_every_metric(self):
        traced = round_of(self.raising(0), trace=True)
        self.assertEqual((traced["attempted"], traced["failed"]), (1, 1))
        self.assertIsNone(traced["setup_s"])
        self.assertIn("boom", traced["failures"][0])
        self.assertEqual(set(traced["per_layer"]), set(spec.UNITS))
        self.assertEqual(traced["machine"], {})

        result = run.workload_result([round_of(self.raising(0)), traced], trace=True)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 2, 2))
        self.assertEqual(set(result["metrics"]), set(spec.UNITS))

    def test_untraced_rounds_with_a_raising_op_give_an_incorrect_result(self):
        rounds = [round_of(self.raising(3)) for _ in range(3)]  # the second timed op
        self.assertEqual([len(r["op_s_samples"]) for r in rounds], [1, 1, 1])
        result = run.workload_result(rounds, trace=False)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 12, 3))
        self.assertEqual(set(result["metrics"]), {name for name, _, _, _ in spec.END_TO_END})
        self.assertGreater(result["metrics"]["op_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
