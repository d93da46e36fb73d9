"""Tests of the numerics instrumentation: CG call-site outcome
counters, per-MG-level diagnostics, and Chebyshev eigenvalue gauges."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers import (
    ChebyshevSmoother,
    HybridMultigridPreconditioner,
    conjugate_gradient,
)
from repro.telemetry import METRICS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def metrics():
    """The process-global registry, enabled and zeroed for one test."""
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


def spd_matrix(n, cond=100.0, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


def make_dg_poisson(refinements=1, degree=2):
    mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
    forest = Forest(mesh).refine_all(refinements)
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return dof, DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))


class TestCGOutcomeCounters:
    def test_every_solve_records_a_failure_reason(self, metrics):
        """Acceptance (CG audit): each call site's failure_reason
        counters — including 'none' for converged solves — sum to its
        solves total."""
        A = spd_matrix(30)
        op = DenseOp(A)
        b = np.ones(30)
        r1 = conjugate_gradient(op, b, tol=1e-10, max_iter=200,
                                name="pressure")
        r2 = conjugate_gradient(op, b, tol=1e-14, max_iter=2,
                                name="pressure")
        r3 = conjugate_gradient(op, b, tol=1e-10, max_iter=200,
                                name="viscous")
        assert r1.converged and r3.converged and not r2.converged
        assert r2.failure_reason == "max_iterations"

        solves = metrics.get("repro_cg_solves_total")
        reasons = metrics.get("repro_cg_failure_reason_total")
        for site in ("pressure", "viscous"):
            total = solves.labels(site).value
            by_reason = sum(
                child.value
                for key, child in reasons.children.items()
                if key[0] == site
            )
            assert total > 0
            assert by_reason == total
        assert reasons.labels(("pressure", "none")).value == 1
        assert reasons.labels(("pressure", "max_iterations")).value == 1
        assert reasons.labels(("viscous", "none")).value == 1
        assert solves.labels("pressure").value == 1 + 1

    def test_unnamed_solves_report_under_unnamed(self, metrics):
        A = spd_matrix(10)
        conjugate_gradient(DenseOp(A), np.ones(10), tol=1e-10, max_iter=100)
        assert metrics.get("repro_cg_solves_total").labels("unnamed").value == 1

    def test_iteration_and_reduction_histograms(self, metrics):
        A = spd_matrix(30)
        res = conjugate_gradient(DenseOp(A), np.ones(30), tol=1e-10,
                                 max_iter=200, name="poisson")
        hist = metrics.get("repro_cg_iterations").labels("poisson")
        assert hist.count == 1
        assert hist.sum == res.n_iterations
        red = metrics.get("repro_cg_residual_reduction").labels("poisson")
        assert red.count == 1
        assert 0 < red.sum < 1
        gauge = metrics.get("repro_cg_last_relative_residual")
        assert gauge.labels("poisson").value <= 1e-10

    def test_all_cg_call_sites_are_labeled(self):
        """Static audit: every ``conjugate_gradient(...)`` call in the
        library passes a ``name=`` (or a computed label), so no solve
        can report under the catch-all 'unnamed' site."""
        unlabeled = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                fname = (fn.id if isinstance(fn, ast.Name)
                         else fn.attr if isinstance(fn, ast.Attribute)
                         else "")
                if fname != "conjugate_gradient":
                    continue
                if not any(kw.arg == "name" for kw in node.keywords):
                    unlabeled.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not unlabeled, (
            "CG call sites without a telemetry name= label: "
            + ", ".join(unlabeled)
        )


class TestMultigridDiagnostics:
    def test_per_level_histograms_and_dof_gauges(self, metrics):
        _, op = make_dg_poisson()
        mg = HybridMultigridPreconditioner(op)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(op.n_dofs)
        res = conjugate_gradient(op, b, mg, tol=1e-8, max_iter=40,
                                 name="pressure")
        assert res.converged

        assert metrics.get("repro_mg_vcycles_total").value == res.n_iterations
        assert metrics.get("repro_mg_amg_solves_total").value == res.n_iterations
        assert metrics.get("repro_mg_nonfinite_vcycles_total").value == 0

        dofs = metrics.get("repro_mg_level_dofs")
        for lev in mg.levels:
            assert dofs.labels(lev.name).value == lev.n_dofs

        # smoothed levels only: the coarsest is handed to AMG directly
        level_names = [lev.name for lev in mg.levels[:-1]]
        assert level_names
        pre = metrics.get("repro_mg_presmooth_reduction")
        full = metrics.get("repro_mg_level_reduction")
        for name in level_names:
            h_pre = pre.labels(name)
            h_full = full.labels(name)
            assert h_pre.count == res.n_iterations
            assert h_full.count == res.n_iterations
            # smoothing makes progress, and the full level visit (with
            # the coarse correction) does at least as well on average
            assert 0 < h_pre.sum / h_pre.count <= 1.0
            assert h_full.sum / h_full.count <= h_pre.sum / h_pre.count

    def test_disabled_registry_records_nothing(self):
        assert not METRICS.enabled
        _, op = make_dg_poisson()
        mg = HybridMultigridPreconditioner(op)
        b = np.ones(op.n_dofs)
        conjugate_gradient(op, b, mg, tol=1e-8, max_iter=40, name="pressure")
        assert METRICS.get("repro_mg_vcycles_total").value == 0
        assert METRICS.get("repro_mg_presmooth_reduction").children == {}


class TestChebyshevGauges:
    def test_eigenvalue_estimates_published_per_size(self, metrics):
        A = spd_matrix(24, cond=50.0)
        sm = ChebyshevSmoother(DenseOp(A))
        lam_max = metrics.get("repro_chebyshev_lambda_max").labels("24")
        lam_min = metrics.get("repro_chebyshev_lambda_min").labels("24")
        assert lam_max.value == pytest.approx(sm.lambda_max)
        assert lam_min.value == pytest.approx(sm.lambda_min)
        assert 0 < lam_min.value < lam_max.value


class TestFallbackCounters:
    def test_escalation_and_tier_counters(self, metrics):
        from repro.robustness.recovery import (
            FallbackTier,
            PressureFallbackChain,
        )

        A = spd_matrix(30)
        op = DenseOp(A)
        chain = PressureFallbackChain([
            # tier 0 gets a 1-iteration budget: guaranteed to fail
            FallbackTier("cheap", lambda: None, max_iter_scale=0.001),
            FallbackTier("robust", lambda: None, max_iter_scale=1.0),
        ])
        res = chain.solve(op, np.ones(30), tol=1e-10, max_iter=500)
        assert res.converged and res.tier == "robust"
        tier = metrics.get("repro_fallback_tier_total")
        assert tier.labels(("pressure", "robust")).value == 1
        esc = metrics.get("repro_fallback_escalations_total")
        assert esc.labels("pressure").value == 1
        assert metrics.get(
            "repro_fallback_exhausted_total").children == {}
