"""Tests of the deterministic pressure-solver fallback chain."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns import (
    BeltramiFlow,
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    SolverSettings,
    VelocityDirichlet,
)
from repro.robustness import (
    FallbackTier,
    PressureFallbackChain,
    RobustnessSettings,
)
from repro.solvers import HybridMultigridPreconditioner, JacobiPreconditioner
from repro.telemetry import METRICS


@pytest.fixture
def metrics():
    """The global metric registry, enabled and zeroed for one test."""
    METRICS.reset()
    METRICS.enable()
    yield METRICS
    METRICS.disable()
    METRICS.reset()


class DenseOp:
    def __init__(self, A):
        self.A = np.asarray(A)

    @property
    def n_dofs(self):
        return self.A.shape[0]

    def vmult(self, x):
        return self.A @ x

    def diagonal(self):
        return np.diag(self.A).copy()


class PoisonPre:
    """A preconditioner whose output is always non-finite."""

    def __init__(self):
        self.calls = 0

    def vmult(self, r):
        self.calls += 1
        return np.full_like(np.asarray(r, dtype=float), np.nan)


def spd_matrix(n, cond=100.0, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


class TestChainEscalation:
    def test_escalates_past_poisoned_tier(self, metrics):
        A = spd_matrix(30)
        op = DenseOp(A)
        b = np.ones(30)
        poison = PoisonPre()
        chain = PressureFallbackChain([
            FallbackTier("primary", lambda: poison),
            FallbackTier("rescue", lambda: JacobiPreconditioner(op)),
        ])
        res = chain.solve(op, b, tol=1e-10, max_iter=500)
        assert res.converged
        assert res.tier == "rescue"
        assert np.allclose(A @ res.x, b, atol=1e-7)
        assert chain.tier_counts == {"primary": 0, "rescue": 1}
        assert chain.escalations == 1
        assert chain.events[0].kind == "fallback_escalation"
        assert chain.events[0].reason == "nan_residual"
        tier = metrics.get("repro_fallback_tier_total")
        assert tier.labels(("pressure", "rescue")).value == 1
        esc = metrics.get("repro_fallback_escalations_total")
        assert esc.labels("pressure").value == 1

    def test_first_tier_success_records_no_escalation(self):
        A = spd_matrix(30)
        op = DenseOp(A)
        chain = PressureFallbackChain([
            FallbackTier("primary", lambda: JacobiPreconditioner(op)),
            FallbackTier("rescue", lambda: pytest.fail("must stay lazy")),
        ])
        res = chain.solve(op, np.ones(30), tol=1e-10, max_iter=500)
        assert res.converged and res.tier == "primary"
        assert chain.escalations == 0
        assert "rescue" not in chain._preconditioners

    def test_exhausted_chain_returns_last_failure(self, metrics):
        A = spd_matrix(10)
        op = DenseOp(A)
        chain = PressureFallbackChain([
            FallbackTier("a", PoisonPre),
            FallbackTier("b", PoisonPre),
        ])
        res = chain.solve(op, np.ones(10), tol=1e-10, max_iter=50)
        assert not res.converged
        assert res.tier == ""
        assert res.failure_reason == "nan_residual"
        exhausted = metrics.get("repro_fallback_exhausted_total")
        assert exhausted.labels("pressure").value == 1

    def test_poisoned_rhs_short_circuits(self):
        A = spd_matrix(10)
        op = DenseOp(A)
        b = np.ones(10)
        b[0] = np.nan
        chain = PressureFallbackChain([
            FallbackTier("primary", lambda: JacobiPreconditioner(op)),
            FallbackTier("rescue", lambda: JacobiPreconditioner(op)),
        ])
        res = chain.solve(op, b, tol=1e-10, max_iter=50)
        assert not res.converged and res.failure_reason == "nan_residual"
        # no tier can rescue a non-finite rhs: the second never runs
        assert "rescue" not in chain._preconditioners

    def test_raised_iteration_cap(self):
        # a hard system the base cap cannot solve, the scaled cap can
        A = spd_matrix(60, cond=1e6, seed=3)
        op = DenseOp(A)
        chain = PressureFallbackChain([
            FallbackTier("primary", lambda: None),
            FallbackTier("rescue", lambda: None, max_iter_scale=80.0),
        ])
        res = chain.solve(op, np.ones(60), tol=1e-10, max_iter=10)
        assert res.converged
        assert res.tier == "rescue"


def poisson_operator():
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(1)
    geo = GeometryField(forest, 2)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, 2)
    return DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))


class TestMixedPrecisionEscalation:
    def test_overflow_rhs_escalates_to_double_precision_mg(self, metrics):
        """A right-hand side near the float32 range: the mixed-precision
        V-cycle overflows to non-finite, the double-precision tier
        converges — the documented first escalation of the chain."""
        op = poisson_operator()
        mg_mixed = HybridMultigridPreconditioner(op)
        chain = PressureFallbackChain([
            FallbackTier("mg_mixed", lambda: mg_mixed),
            FallbackTier(
                "mg_double",
                lambda: HybridMultigridPreconditioner(op, precision=np.float64),
            ),
        ])
        rng = np.random.default_rng(0)
        b = rng.standard_normal(op.n_dofs) * 2e38  # finite in float32, but
        # any product overflows the single-precision V-cycle
        # the poisoned single-precision V-cycle overflows by design
        with np.errstate(invalid="ignore", over="ignore"):
            res = chain.solve(op, b, tol=1e-8, max_iter=500)
        assert res.converged
        assert res.tier == "mg_double"
        assert mg_mixed.nonfinite_vcycles > 0
        tier = metrics.get("repro_fallback_tier_total")
        assert tier.labels(("pressure", "mg_double")).value == 1
        esc = metrics.get("repro_fallback_escalations_total")
        assert esc.labels("pressure").value == 1
        assert metrics.get("repro_mg_nonfinite_vcycles_total").value >= 1
        rel = np.linalg.norm(op.vmult(res.x) - b) / np.linalg.norm(b)
        assert rel < 1e-6


class TestSolverWiring:
    def test_solver_builds_documented_tier_order(self):
        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh).refine_all(1)
        flow = BeltramiFlow(0.05)
        bcs = BoundaryConditions(
            {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
        )
        solver = IncompressibleNavierStokesSolver(
            forest, 2, 0.05, bcs, SolverSettings(solver_tolerance=1e-6),
            robustness=RobustnessSettings(),
        )
        assert solver.pressure_fallback is not None
        assert solver.pressure_fallback.tier_names == [
            "mg_mixed", "mg_double", "jacobi_cg",
        ]
        assert solver.scheme.pressure_fallback is solver.pressure_fallback

    def test_fallback_disabled(self):
        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh).refine_all(1)
        bcs = BoundaryConditions({1: VelocityDirichlet.no_slip()})
        solver = IncompressibleNavierStokesSolver(
            forest, 2, 0.05, bcs, SolverSettings(solver_tolerance=1e-6),
            robustness=RobustnessSettings(enable_fallback=False),
        )
        assert solver.pressure_fallback is None
        assert solver.scheme.pressure_fallback is None
