"""Tests of the one CG body of :func:`conjugate_gradient` on
``(*lead, n)`` states: per-member convergence masks and iteration
counts, the ``(1, n)`` == ``(n,)`` and member == solo bitwise contracts,
and one failure-semantics table over ``lead`` in ``(), (1,), (3,)``."""

import numpy as np
import pytest

from repro.solvers.krylov import conjugate_gradient


class DiagonalOperator:
    """SPD (or deliberately indefinite) diagonal test operator; vmult
    broadcasts over a leading ensemble axis like the real operators.
    ``nan_at`` poisons the output of the k-th application (of the
    members ``nan_members``, default all)."""

    def __init__(self, d, nan_at=None, nan_members=...):
        self.d = np.asarray(d, dtype=float)
        self.n_dofs = self.d.shape[-1]
        self.nan_at = nan_at
        self.nan_members = nan_members
        self.calls = 0

    def vmult(self, x):
        self.calls += 1
        y = self.d * x
        if self.calls == self.nan_at:
            y[self.nan_members] = np.nan
        return y


@pytest.fixture
def op(rng):
    return DiagonalOperator(rng.uniform(1.0, 10.0, size=40))


LEADS = [(), (1,), (3,)]


class TestE1Dispatch:
    """``(1, n)`` input is the flat solve, through the same body (the
    class name is part of the test ids)."""

    def test_e1_bitwise_matches_flat(self, op, rng):
        b = rng.standard_normal(op.n_dofs)
        flat = conjugate_gradient(op, b, tol=1e-12)
        batched = conjugate_gradient(op, b[None], tol=1e-12)
        assert batched.x.shape == (1, op.n_dofs)
        assert np.array_equal(batched.x[0], flat.x)
        assert batched.residuals == flat.residuals
        assert batched.n_iterations == flat.n_iterations
        assert batched.member_iterations == [flat.n_iterations]
        assert batched.converged and flat.converged

    def test_e1_bitwise_with_initial_guess_and_float32(self, op, rng):
        b, x0 = rng.standard_normal((2, op.n_dofs)).astype(np.float32)
        flat = conjugate_gradient(op, b, tol=1e-5, x0=x0, dtype=np.float32)
        batched = conjugate_gradient(
            op, b[None], tol=1e-5, x0=x0[None], dtype=np.float32
        )
        assert flat.x.dtype == batched.x.dtype == np.float32
        assert np.array_equal(batched.x[0], flat.x)
        assert batched.residuals == flat.residuals

    def test_flat_solve_has_no_member_iterations(self, op):
        res = conjugate_gradient(op, np.ones(op.n_dofs), tol=1e-12)
        assert res.member_iterations is None


class TestBatchedConvergence:
    def test_members_match_independent_flat_solves(self, op, rng):
        # every member reduces with the flat BLAS dot / norm, and a
        # converged member freezes (alpha = 0) while the others go on
        B = rng.standard_normal((4, op.n_dofs))
        B[2] *= 1e-3
        batched = conjugate_gradient(op, B, tol=1e-9)
        assert batched.converged
        solos = [conjugate_gradient(op, b, tol=1e-9) for b in B]
        for e, solo in enumerate(solos):
            assert np.array_equal(batched.x[e], solo.x), f"member {e}"
            assert batched.member_iterations[e] == solo.n_iterations
        assert batched.n_iterations == max(s.n_iterations for s in solos)

    def test_member_iterations_track_per_member_difficulty(self):
        # diagonal with 3 distinct eigenvalues: CG needs as many
        # iterations as eigenvalues active in the right-hand side
        d = np.array([1.0] * 4 + [4.0] * 4 + [9.0] * 4)
        op = DiagonalOperator(d)
        easy = np.zeros(12)
        easy[0] = 1.0  # one eigenvalue: converges in 1 iteration
        hard = np.ones(12)  # all three eigenvalues
        res = conjugate_gradient(op, np.stack([easy, hard]), tol=1e-12)
        assert res.converged
        assert res.member_iterations[0] == 1
        assert res.member_iterations[1] == 3
        assert res.n_iterations == 3
        # the early member froze at its converged answer
        np.testing.assert_allclose(res.x[0], easy / d, rtol=1e-13)
        np.testing.assert_allclose(res.x[1], hard / d, rtol=1e-12)

    def test_zero_rhs_member_converges_instantly(self, op, rng):
        b = rng.standard_normal(op.n_dofs)
        res = conjugate_gradient(op, np.stack([np.zeros(op.n_dofs), b]),
                                 tol=1e-12)
        assert res.converged
        assert res.member_iterations[0] == 0
        assert np.array_equal(res.x[0], np.zeros(op.n_dofs))

    def test_all_members_trivial(self, op):
        res = conjugate_gradient(op, np.zeros((3, op.n_dofs)), tol=1e-12)
        assert res.converged
        assert res.n_iterations == 0
        assert res.member_iterations == [0, 0, 0]


class TestBatchedFailures:
    def test_breakdown_on_indefinite_member(self):
        d = np.ones(10)
        d[0] = -1.0  # not SPD: p^T A p goes non-positive
        op = DiagonalOperator(d)
        b = np.ones((2, 10))
        res = conjugate_gradient(op, b, tol=1e-14)
        assert not res.converged
        assert res.failure_reason == "breakdown"

    def test_nan_rhs_reports_nan_residual(self, op):
        # one poisoned member stops the whole batch before it starts
        b = np.ones((2, op.n_dofs))
        b[1, 0] = np.nan
        res = conjugate_gradient(op, b, tol=1e-12)
        assert not res.converged
        assert res.failure_reason == "nan_residual"
        assert res.member_iterations == [0, 0]

    def test_max_iterations(self, op, rng):
        B = rng.standard_normal((2, op.n_dofs))
        res = conjugate_gradient(op, B, tol=1e-15, max_iter=2)
        assert not res.converged
        assert res.failure_reason == "max_iterations"
        assert all(m <= 2 for m in res.member_iterations)


@pytest.mark.parametrize("lead", LEADS, ids=["flat", "e1", "e3"])
class TestFailureSemantics:
    """The flat solve's return values, for every ``lead``."""

    def _member_iterations(self, res, lead):
        if lead == ():
            assert res.member_iterations is None
            return [res.n_iterations]
        assert len(res.member_iterations) == lead[0]
        assert res.n_iterations == max(res.member_iterations)
        return res.member_iterations

    def test_nan_rhs_reports_nan_residual(self, op, lead):
        b = np.ones(lead + (op.n_dofs,))
        b[..., 0] = np.nan
        res = conjugate_gradient(op, b, tol=1e-12)
        assert not res.converged
        assert res.failure_reason == "nan_residual"
        assert res.n_iterations == 0 and op.calls == 0
        assert set(self._member_iterations(res, lead)) == {0}

    @pytest.mark.parametrize("k", [1, 3])
    def test_operator_nan_at_iteration_k(self, rng, lead, k):
        op = DiagonalOperator(rng.uniform(1.0, 10.0, size=40), nan_at=k)
        b = rng.standard_normal(lead + (40,))
        res = conjugate_gradient(op, b, tol=1e-14)
        assert not res.converged
        assert res.failure_reason == "nan_residual"
        assert res.n_iterations == k - 1
        assert set(self._member_iterations(res, lead)) == {k - 1}
        # x is the last finite iterate: the poisoned update is not applied
        healthy = DiagonalOperator(op.d)
        ref = conjugate_gradient(healthy, b, tol=1e-14, max_iter=k - 1)
        assert np.array_equal(res.x, ref.x)
        assert len(res.residuals) == k

    def test_breakdown_on_indefinite_member(self, rng, lead):
        # member 0 meets an indefinite operator (p^T A p goes
        # non-positive); any other member's is SPD
        d = np.ones(lead + (10,))
        d[..., 0] = -1.0
        d[1:] = rng.uniform(1.0, 4.0, size=d[1:].shape)
        res = conjugate_gradient(DiagonalOperator(d), np.ones_like(d), tol=1e-12)
        assert not res.converged
        assert res.failure_reason == "breakdown"
        assert np.isfinite(res.x).all()
        its = self._member_iterations(res, lead)
        # the other members ran on to their solo answers
        for e in range(1, len(its)):
            solo = conjugate_gradient(DiagonalOperator(d[e]), np.ones(10), tol=1e-12)
            assert solo.converged and its[e] == solo.n_iterations
            assert np.array_equal(res.x[e], solo.x)

    def test_max_iterations(self, op, rng, lead):
        b = rng.standard_normal(lead + (op.n_dofs,))
        res = conjugate_gradient(op, b, tol=1e-15, max_iter=2)
        assert not res.converged
        assert res.failure_reason == "max_iterations"
        assert res.n_iterations == 2
        assert set(self._member_iterations(res, lead)) == {2}


def test_poisoned_member_freezes_at_its_last_finite_iterate(rng):
    """One member's operator output turns NaN at iteration 3; the
    others converge to their solo answers, the poisoned member keeps its
    iterate of iteration 2 and the residual history stays finite."""
    d = rng.uniform(1.0, 10.0, size=40)
    B = rng.standard_normal((3, 40))
    res = conjugate_gradient(
        DiagonalOperator(d, nan_at=3, nan_members=1), B, tol=1e-10
    )
    assert not res.converged and res.failure_reason == "nan_residual"
    assert res.member_iterations[1] == 2
    assert np.isfinite(res.x).all() and np.isfinite(res.residuals).all()
    two = conjugate_gradient(DiagonalOperator(d), B[1], tol=1e-10, max_iter=2)
    assert np.array_equal(res.x[1], two.x)
    for e in (0, 2):
        solo = conjugate_gradient(DiagonalOperator(d), B[e], tol=1e-10)
        assert solo.converged and np.array_equal(res.x[e], solo.x)
