"""Span self-time arithmetic, including the recursive V-cycle whose
level spans the transfer wrappers derive."""

import unittest

import tracing
from tracing import BUILD, Recorder, self_seconds, summarize


def span(name, start, end, parent, op=0, flops=0.0, nbytes=0.0):
    return [name, start, end, parent, op, flops, nbytes]


class SelfTime(unittest.TestCase):
    def test_self_is_duration_minus_children(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("b", 2.0, 3.0, 1),
            span("a", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_seconds(spans), [3.0, 2.0, 1.0, 4.0])
        # closure: the self times of one op sum to its root's duration
        self.assertEqual(sum(self_seconds(spans)), 10.0)

    def test_inclusive_time_does_not_count_same_name_nesting_twice(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("vmult", 1.0, 9.0, 0, flops=5.0),
            span("inner", 2.0, 8.0, 1),
            span("vmult", 3.0, 7.0, 2, flops=5.0),
        ]
        agg = summarize(spans, [0])["vmult"]
        self.assertEqual(agg["calls"], 2)
        self.assertEqual(agg["incl"], 8.0)
        self.assertEqual(agg["self"], 2.0 + 4.0)
        self.assertEqual(agg["flops"], 10.0)

    def test_summaries_are_per_op(self):
        spans = [
            span("build", 0.0, 1.0, -1, op=BUILD),
            span("x", 0.2, 0.7, 0, op=BUILD),
            span("root", 1.0, 2.0, -1, op=0),
            span("x", 1.0, 1.25, 2, op=0),
            span("root", 2.0, 3.0, -1, op=1),
            span("x", 2.0, 2.5, 4, op=1),
        ]
        self.assertAlmostEqual(summarize(spans, [BUILD])["x"]["incl"], 0.5)
        self.assertAlmostEqual(summarize(spans, [1])["x"]["incl"], 0.5)
        self.assertAlmostEqual(summarize(spans, [0, 1])["x"]["incl"], 0.75)
        self.assertNotIn("build", summarize(spans, [0, 1]))


class FakeTransfer:
    def restrict(self, r):
        return r

    def prolongate(self, x):
        return x


class RecursiveVCycle(unittest.TestCase):
    """A three-level V-cycle built from the real wrappers."""

    def setUp(self):
        self.rec = rec = Recorder()
        rec.active = True
        restrict = tracing._traced_restrict(rec, FakeTransfer.restrict)
        prolongate = tracing._traced_prolongate(rec, FakeTransfer.prolongate)
        smooth = tracing.traced(rec, lambda level: None, "smooth")
        transfer = FakeTransfer()

        def vcycle(level):
            if level == 2:
                return smooth(level)
            smooth(level)
            restrict(transfer, None)
            vcycle(level + 1)
            prolongate(transfer, None)
            smooth(level)

        class Preconditioner:
            def vmult(self, r):
                return vcycle(0)

        self.vmult = tracing._traced_vcycle(rec, Preconditioner.vmult)
        self.preconditioner = Preconditioner()

    def test_level_spans_nest_like_the_recursion(self):
        rec = self.rec
        rec.op = 0
        self.vmult(self.preconditioner, None)
        self.vmult(self.preconditioner, None)
        names = [s[tracing.NAME] for s in rec.spans]
        level = "solvers.multigrid.level{}".format
        one_cycle = [level(0), "smooth", level(0) + ".transfer", level(1), "smooth",
                     level(1) + ".transfer", level(2), "smooth", level(1) + ".transfer",
                     "smooth", level(0) + ".transfer", "smooth"]
        self.assertEqual(names, one_cycle * 2)
        parents = [s[tracing.PARENT] for s in rec.spans[:12]]
        #          l0  sm t0 l1 sm t1 l2 sm t1 sm t0 sm
        self.assertEqual(parents, [-1, 0, 0, 0, 3, 3, 3, 6, 3, 3, 0, 0])
        self.assertEqual(rec._stack, [])
        self.assertEqual(rec._mg_level, [])

    def test_closure_and_level_self_times(self):
        rec = self.rec
        rec.op = 0
        self.vmult(self.preconditioner, None)
        selfs = self_seconds(rec.spans)
        root = rec.spans[0]
        self.assertAlmostEqual(sum(selfs), root[tracing.END] - root[tracing.START], places=9)
        agg = summarize(rec.spans, [0])
        # a level's span covers the coarser level and both transfers
        l0, l1 = agg["solvers.multigrid.level0"], agg["solvers.multigrid.level1"]
        self.assertGreaterEqual(l0["incl"], l1["incl"] + agg["solvers.multigrid.level0.transfer"]["incl"])
        self.assertEqual(agg["smooth"]["calls"], 5)

    def test_a_raising_coarse_level_leaves_no_span_open(self):
        rec = self.rec

        def boom(self, r):
            raise RuntimeError("coarse solve failed")

        restrict = tracing._traced_restrict(rec, FakeTransfer.restrict)

        class Broken:
            def vmult(self, r):
                restrict(FakeTransfer(), None)
                boom(self, r)

        vmult = tracing._traced_vcycle(rec, Broken.vmult)
        with self.assertRaises(RuntimeError):
            vmult(Broken(), None)
        self.assertEqual(rec._stack, [])
        self.assertEqual(rec._mg_level, [])
        self.assertTrue(all(s[tracing.END] >= s[tracing.START] > 0 for s in rec.spans))

    def test_inactive_recorder_records_nothing(self):
        self.rec.active = False
        self.vmult(self.preconditioner, None)
        self.assertEqual(self.rec.spans, [])


if __name__ == "__main__":
    unittest.main()
