"""Integration tests: the instrumented solve stack reports into the
global tracer and metric registry, and stays silent (and cheap) when
they are disabled."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers import HybridMultigridPreconditioner, conjugate_gradient
from repro.telemetry import METRICS, TRACER


@pytest.fixture
def tracing():
    """Enable the global tracer and metric registry for one test, always
    restoring both."""
    TRACER.reset()
    TRACER.enable()
    METRICS.reset()
    METRICS.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


def span_calls(tracer, name):
    """Call count of every span called ``name``, wherever it nests."""
    return sum(node.count for _, node in tracer.root.walk()
               if node.name == name)


def small_poisson(degree=2, refinements=1):
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(refinements)
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
    b = op.assemble_rhs(f=lambda x, y, z: np.ones_like(x),
                        dirichlet=lambda x, y, z: 0.0 * x)
    return op, b


class TestInstrumentedSolve:
    def test_cg_multigrid_solve_populates_tracer(self, tracing):
        op, b = small_poisson()
        mg = HybridMultigridPreconditioner(op)
        tracing.reset()  # drop setup-time spans (Lanczos etc.)
        METRICS.reset()  # ... and setup-time metrics
        res = conjugate_gradient(op, b, mg, tol=1e-10, name="poisson")
        assert res.converged
        # spans: cg[poisson] > mg_vcycle > per-level + amg_coarse
        cg_node = tracing.find("cg[poisson]")
        assert cg_node is not None and cg_node.count == 1
        mg_node = tracing.find("cg[poisson]", "mg_vcycle")
        assert mg_node is not None
        # one V-cycle per CG iteration (initial z + one per iteration)
        assert mg_node.count >= res.n_iterations
        assert "amg_coarse" in mg_node.children
        # application counts are span counts ...
        assert span_calls(tracing, "vmult[DGLaplaceOperator]") >= res.n_iterations
        assert span_calls(tracing, "chebyshev") > 0
        # ... and every other tally is a metric family
        assert METRICS.get("repro_cg_solves_total").labels("poisson").value == 1
        assert (METRICS.get("repro_cg_iterations").labels("poisson").sum
                == res.n_iterations)
        assert METRICS.get("repro_mg_vcycles_total").value == mg_node.count
        assert (METRICS.get("repro_cg_last_relative_residual")
                .labels("poisson").value <= 1e-10)

    def test_disabled_tracer_records_nothing_during_solve(self):
        assert not TRACER.enabled and not METRICS.enabled
        TRACER.reset()
        METRICS.reset()
        op, b = small_poisson()
        mg = HybridMultigridPreconditioner(op)
        res = conjugate_gradient(op, b, mg, tol=1e-8, name="poisson")
        assert res.converged
        assert TRACER.root.children == {}
        assert METRICS.get("repro_cg_solves_total").children == {}

    def test_dual_splitting_substep_spans(self, tracing):
        """One Navier-Stokes step emits the per-sub-step spans and a
        consistent StepStatistics record."""
        from repro.ns.bc import BoundaryConditions
        from repro.ns.solver import IncompressibleNavierStokesSolver, SolverSettings

        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh).refine_all(1)
        solver = IncompressibleNavierStokesSolver(
            forest, 2, 1e-2, BoundaryConditions({}),
            SolverSettings(solver_tolerance=1e-3, use_multigrid=False,
                           dt_max=1e-3),
        )
        solver.initialize()
        tracing.reset()
        st = solver.step()
        step_node = tracing.find("step")
        assert step_node is not None and step_node.count == 1
        for name in ("convective", "pressure_poisson", "projection",
                     "helmholtz", "penalty", "convective_eval"):
            assert name in step_node.children, name
            assert st.substep_seconds[name] == pytest.approx(
                step_node.children[name].total
            )
        # sub-step spans account for (nearly) the whole step wall time
        assert sum(st.substep_seconds.values()) >= 0.9 * st.wall_time
        assert st.wall_time >= step_node.total * 0.9
        assert st.cfl >= 0.0  # stamped by the solver (0 at rest)
