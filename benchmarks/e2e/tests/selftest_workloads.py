"""Seeded inputs repeat, and the tracing shims are transparent.

Runs the Poisson workload on the refine-1 box (1 024 DoF) so the whole
file takes seconds.  The shim test installs the process-wide wrappers,
so it runs last (``zz``) and leaves them inactive."""

import unittest

import numpy as np

import tracing
from workloads import PoissonBox, source_coefficients


class SmallPoisson(PoissonBox):
    refine = 1


def solve(seed, round_index=0):
    wl = SmallPoisson(seed, round_index)
    wl.build()
    return wl, wl.op(0)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_iterations(self):
        a, ra = solve(7)
        b, rb = solve(7)
        self.assertTrue(np.array_equal(a.b, b.b))
        self.assertEqual(ra.n_iterations, rb.n_iterations)
        self.assertEqual(ra.residuals, rb.residuals)

    def test_different_seed_or_round_different_inputs(self):
        a = SmallPoisson(7, 0)
        a.build()
        for seed, round_index in ((8, 0), (7, 1)):
            b = SmallPoisson(seed, round_index)
            b.build()
            self.assertFalse(np.array_equal(a.b, b.b))

    def test_every_mode_stays_excited(self):
        for seed in range(50):
            c = np.abs(source_coefficients(seed, 0))
            self.assertTrue(((c >= 0.5) & (c <= 1.5)).all())

    def test_checks_pass_and_catch_a_wrong_solution(self):
        wl, result = solve(3)
        failures, info = wl.check(0, result)
        self.assertEqual(failures, [])
        self.assertLessEqual(info["true_residual"], wl.residual_bound)
        result.x = result.x * (1.0 + 1e-6)
        failures, _ = wl.check(1, result)
        self.assertEqual(len(failures), 1)
        self.assertIn("true residual", failures[0])


class ZzShimsAreTransparent(unittest.TestCase):
    def test_traced_solve_is_bit_identical(self):
        _, plain = solve(11)
        rec = tracing.Recorder()
        tracing.install(rec)
        try:
            rec.active = True
            rec.op = 0
            with rec.span("harness.op"):
                _, traced = solve(11)
        finally:
            rec.active = False
        self.assertEqual(traced.residuals, plain.residuals)
        self.assertTrue(np.array_equal(traced.x, plain.x))
        names = {s[tracing.NAME] for s in rec.spans}
        for expected in ("solvers.krylov.cg", "core.operators.dg_laplace.vmult",
                         "core.operators.dg_laplace.vmult_f32", "solvers.multigrid.level0",
                         "solvers.multigrid.level1", "solvers.chebyshev.smooth",
                         "solvers.amg.coarse", "mesh.connectivity", "mesh.geometry"):
            self.assertIn(expected, names)
        # closure by construction: self times sum to the root's duration
        root = rec.spans[0]
        self.assertAlmostEqual(sum(tracing.self_seconds(rec.spans)),
                               root[tracing.END] - root[tracing.START], places=6)
        # and with the recorder off the wrappers pass straight through
        n = len(rec.spans)
        _, again = solve(11)
        self.assertEqual(len(rec.spans), n)
        self.assertEqual(again.residuals, plain.residuals)


if __name__ == "__main__":
    unittest.main()
