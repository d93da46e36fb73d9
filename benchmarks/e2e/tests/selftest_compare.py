"""Verdicts of ``--compare`` on synthetic documents."""

import copy
import io
import unittest

import compare


def workload(op_samples, setup=(1.0, 1.0, 1.0), rss=(100.0, 100.0, 100.0), layer=0.5):
    import stats

    rounds = [{"round": i, "setup_s": s, "peak_rss_mb": r, "op_s_samples": list(op_samples)}
              for i, (s, r) in enumerate(zip(setup, rss))]
    pooled = [x for r in rounds for x in r["op_s_samples"]]
    return {
        "end_to_end": {"setup_s": stats.median(setup), "op_s": stats.median(pooled),
                       "peak_rss_mb": stats.median(rss)},
        "spread": {"setup_s": stats.iqr(setup), "op_s": stats.iqr(pooled),
                   "peak_rss_mb": stats.iqr(rss)},
        "failed_ops_share": 0.0,
        "per_layer": {"solvers.multigrid.vcycle_s": layer, "core.plans.scatter_s": 0.001,
                      "solvers.krylov.iterations": 11.0},
        "rounds": rounds,
    }


def document(**kwargs):
    return {"environment": {"fingerprint": {"machine": "x", "git_sha": "a", "timestamp": "t"},
                            "pinned_threads": {}, "nproc": 2},
            "workloads": {"w": workload(**kwargs)}}


class Verdicts(unittest.TestCase):
    def verdict(self, a, b, metric="op_s", bound=0.10):
        return compare.verdict(a["workloads"]["w"], b["workloads"]["w"], metric, bound)[0]

    def test_inside_the_bound_is_ok(self):
        a = document(op_samples=[1.00, 1.01, 1.02])
        b = document(op_samples=[1.05, 1.06, 1.07])
        self.assertEqual(self.verdict(a, b), "ok")

    def test_beyond_the_bound_is_regressed(self):
        a = document(op_samples=[1.00, 1.01, 1.02])
        b = document(op_samples=[1.40, 1.41, 1.42])
        self.assertEqual(self.verdict(a, b), "regressed")
        out = io.StringIO()
        self.assertEqual(compare.compare(a, b, out=out), 1)

    def test_overlapping_wide_spread_is_unresolved(self):
        a = document(op_samples=[0.8, 1.0, 1.3])
        b = document(op_samples=[0.9, 1.15, 1.4])
        self.assertEqual(self.verdict(a, b), "unresolved")

    def test_wide_spread_but_every_value_better_is_ok(self):
        a = document(op_samples=[1.0, 1.2, 1.5])
        b = document(op_samples=[0.5, 0.7, 0.9])
        self.assertEqual(self.verdict(a, b), "ok")

    def test_layer_deltas_are_sorted_by_absolute_change(self):
        a = document(op_samples=[1.0, 1.0, 1.0])
        b = document(op_samples=[1.0, 1.0, 1.0], layer=0.9)
        out = io.StringIO()
        self.assertEqual(compare.compare(a, b, out=out), 0)
        lines = out.getvalue().splitlines()
        first = lines[lines.index("per-layer seconds, largest absolute change first:") + 1]
        self.assertIn("solvers.multigrid.vcycle_s", first)
        self.assertNotIn("other per-layer metrics that differ", out.getvalue())

    def test_a_new_failure_regresses(self):
        a = document(op_samples=[1.0, 1.0, 1.0])
        b = copy.deepcopy(a)
        b["workloads"]["w"]["failed_ops_share"] = 0.1
        self.assertEqual(compare.compare(a, b, out=io.StringIO()), 1)

    def test_fingerprints_ignore_sha_and_time_only(self):
        a = document(op_samples=[1.0])
        b = copy.deepcopy(a)
        b["environment"]["fingerprint"].update(git_sha="b", timestamp="later")
        self.assertEqual(compare.comparable_environment(a), compare.comparable_environment(b))
        b["environment"]["nproc"] = 4
        self.assertNotEqual(compare.comparable_environment(a), compare.comparable_environment(b))


if __name__ == "__main__":
    unittest.main()
