"""The process-wide scratch arena (:data:`repro.core.plans.SCRATCH`).

Every operator, dtype clone, multigrid level, face loop and rank-local
operator takes its scratch from one arena, and the cell kernels reuse a
tag as soon as its contents are dead.  A caller that reads an arena
buffer after someone else took its tag, or reads scratch it never wrote,
gets numbers that merely happen to be right.  The guard makes that
visible: it fills every buffer the arena hands out with NaN and demands
outputs equal to the unpoisoned run bit for bit — on the box, the
curved cylinder and the hanging box, in fp64 and fp32, flat and with a
leading member axis.  A test-local operator with a live-tag bug turns
it red, so it cannot pass vacuously.

The footprint facts pin what the arena buys on the r2 box with the
hybrid multigrid: one arena object, one fp32 metric shared by the DG
and CG(k=3) clones, and a bounded number of lane blocks of scratch.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import plans
from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import (
    CGLaplaceOperator,
    DGLaplaceOperator,
    HelmholtzOperator,
    InverseMassOperator,
    MassOperator,
    VectorDGLaplace,
)
from repro.core.operators.base import MatrixFreeOperator
from repro.core.plans import SCRATCH, Workspace
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box, cylinder
from repro.mesh.mapping import METRIC_ROWS, GeometryField
from repro.mesh.octree import Forest
from repro.parallel.runtime import InProcessGhostRuntime, RankLocalOperator
from repro.solvers import HybridMultigridPreconditioner, conjugate_gradient
from repro.solvers.multigrid import operator_to_dtype
from repro.telemetry import METRICS

from .test_dtype_preservation import assert_no_float64

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _box():
    return Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1), (1,)


def _cylinder():
    return Forest(cylinder(radius=0.5, length=1.0, n_axial=2, smooth=True)), (1, 2)


def _hanging_box():
    forest = Forest(box(subdivisions=(2, 2, 1), boundary_ids={0: 1}))
    return forest.refine([forest.leaves[0]]).balance(), (1,)


MESHES = {"box": _box, "cylinder": _cylinder, "hanging_box": _hanging_box}


def _operators(name):
    forest, dirichlet = MESHES[name]()
    k = 2
    geo = GeometryField(forest, k)
    dg = DGLaplaceOperator(DGDofHandler(forest, k), geo, build_connectivity(forest),
                           dirichlet_ids=dirichlet)
    dof_u = DGDofHandler(forest, k, n_components=3)
    mass = MassOperator(dof_u, geo)
    ops = {
        "dg": dg,
        "cg": CGLaplaceOperator(CGDofHandler(forest, k, dirichlet_ids=dirichlet), geo),
        "mass": mass,
        "inverse_mass": InverseMassOperator(dof_u, geo),
        "helmholtz": HelmholtzOperator(mass, VectorDGLaplace(dg, dof_u), nu=0.3),
    }
    mg = {dt: HybridMultigridPreconditioner(dg, precision=dt) for dt in (np.float64, np.float32)}
    return ops, mg


@pytest.fixture(scope="module")
def built():
    return {}


def _outputs(ops, mg, dtype, lead):
    """Every guarded application of one mesh's operators at ``dtype``
    with leading axes ``lead``, as a list of arrays."""
    rng = np.random.default_rng(5)
    out = []
    for name, op64 in ops.items():
        op = operator_to_dtype(op64, dtype)
        x = rng.standard_normal(lead + (op.n_dofs,)).astype(dtype)
        out.append(op.vmult(x))
        if name != "inverse_mass":
            out.append(op.diagonal())
    dg = operator_to_dtype(ops["dg"], dtype)
    out.append(dg.assemble_rhs(lambda x, y, z: np.sin(x) * y + z,
                               dirichlet=lambda x, y, z: x * z - y,
                               neumann=lambda x, y, z: np.cos(y) + x))
    x = rng.standard_normal(lead + (dg.n_dofs,)).astype(dtype)
    out.append(InProcessGhostRuntime(dg, 2).vmult(x))
    out.append(mg[dtype].vmult(rng.standard_normal(lead + (dg.n_dofs,))))
    return out


def _poisoned(monkeypatch):
    """Make every arena hand out NaN-filled buffers; returns the list
    the patched ``take`` appends each request's tag to."""
    real, taken = Workspace.take, []

    def take(self, tag, shape, dtype=np.float64):
        arr = real(self, tag, shape, dtype)
        arr[...] = np.nan
        taken.append(tag)
        return arr

    monkeypatch.setattr(Workspace, "take", take)
    return taken


def _guard(monkeypatch, run) -> bool:
    """True when ``run()``'s outputs with a poisoned arena equal the
    clean run's bit for bit."""
    clean = [np.array(a, copy=True) for a in run()]
    with monkeypatch.context() as m:
        taken = _poisoned(m)
        dirty = run()
    assert taken, "the poisoned arena handed out nothing: the guard is vacuous"
    return all(np.array_equal(a, b) for a, b in zip(clean, dirty))


class TestNaNGuard:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["flat", "lead2"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["fp64", "fp32"])
    @pytest.mark.parametrize("mesh", list(MESHES))
    def test_poisoned_scratch_changes_no_bit(self, monkeypatch, built, mesh, dtype, lead):
        if mesh not in built:
            built[mesh] = _operators(mesh)
        ops, mg = built[mesh]
        assert _guard(monkeypatch, lambda: _outputs(ops, mg, dtype, lead))

    def test_live_tag_reuse_turns_it_red(self, monkeypatch):
        """An injected bug: a cell term taking its product buffer from
        ``tpk.g`` while the gradient stack it still reads lives there."""

        class LiveTagReuse(DGLaplaceOperator):
            def vmult(self, x):
                g = self.kern.gradients_cm(self.dof.lanes(x), SCRATCH)
                t = SCRATCH.take("tpk.g", g.shape[1:], g.dtype)
                Dg = np.empty_like(g)
                for a, ((b, s), *rest) in enumerate(METRIC_ROWS[len(self.laplace_d)]):
                    np.multiply(self.laplace_d[s], g[b], out=Dg[a])
                    for b, s in rest:
                        Dg[a] += np.multiply(self.laplace_d[s], g[b], out=t)
                return self.kern.integrate_gradients_cm(Dg).reshape(x.shape)

        forest, dirichlet = _cylinder()
        op = LiveTagReuse(DGDofHandler(forest, 2), GeometryField(forest, 2),
                          build_connectivity(forest), dirichlet_ids=dirichlet)
        x = np.random.default_rng(0).standard_normal(op.n_dofs)
        assert not _guard(monkeypatch, lambda: [op.vmult(x)])


# ----------------------------------------------------------------------
# footprint facts
# ----------------------------------------------------------------------

#: measured: one solve on the r2 box leaves 16.875 finest-level fp64
#: lane blocks (n_dofs * 8 bytes each) in the arena, fp64 and fp32
#: applications of every level together: the cell term's 8 (``tpk.a``,
#: ``tpk.b``, the 3-block ``tpk.g`` and ``lap.Dg``), ``sip.E`` (1), the
#: face sheets (3) and the face-chunk gathers ``sip.G``/``sip.Q``
#: (2.4375 each: one chunk holds all of this small mesh's rows; 0.45 on
#: the r3 box, 12.9 blocks in all).  The per-operator arenas this
#: replaced held 14 blocks per dtype and operator.
MAX_LANE_BLOCKS = 16.875


@pytest.fixture(scope="module")
def r2_box():
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(2)
    op = DGLaplaceOperator(DGDofHandler(forest, 3), GeometryField(forest, 3),
                           build_connectivity(forest), dirichlet_ids=(1,))
    mg = HybridMultigridPreconditioner(op)
    b = op.assemble_rhs(lambda x, y, z: np.sin(3 * x) * np.cos(2 * y) + z)
    return op, mg, b


class TestFootprint:
    def test_one_arena_serves_every_operator_level_loop_and_rank(self, monkeypatch, r2_box):
        op, mg, b = r2_box
        real, users = Workspace.take, []

        def take(self, tag, shape, dtype=np.float64):
            users.append((id(self), tag))
            return real(self, tag, shape, dtype)

        monkeypatch.setattr(Workspace, "take", take)
        conjugate_gradient(op, b, mg, tol=1e-8)
        InProcessGhostRuntime(op, 2).vmult(b)
        assert {u for u, _ in users} == {id(SCRATCH)}
        tags = {t for _, t in users}
        assert {"tpk.a", "tpk.b", "tpk.g", "lap.Dg", "sip.sheets", "sip.E", "rank.lanes"} <= tags
        assert not hasattr(MatrixFreeOperator, "workspace")
        assert not hasattr(RankLocalOperator(op, InProcessGhostRuntime(op, 2).plan, 0), "ws")

    def test_dg_and_cg_clones_share_one_fp32_metric(self, r2_box):
        _, mg, _ = r2_box
        dg, cg = (lev.operator for lev in mg.levels[:2])
        assert isinstance(dg, DGLaplaceOperator) and isinstance(cg, CGLaplaceOperator)
        assert dg.laplace_d is cg.laplace_d
        assert dg.laplace_d.dtype == np.float32
        # a second clone casts nothing new
        assert operator_to_dtype(mg.dg_op, np.float32).laplace_d is dg.laplace_d

    def test_laplace_clones_hold_no_float64_array(self, r2_box):
        _, mg, _ = r2_box
        for lev in mg.levels[:2]:
            assert lev.operator.dtype == np.float32
            assert_no_float64(lev.operator)

    def test_arena_after_one_solve(self, r2_box):
        op, mg, b = r2_box
        SCRATCH.clear()
        conjugate_gradient(op, b, mg, tol=1e-8)
        assert SCRATCH.nbytes <= MAX_LANE_BLOCKS * op.n_dofs * 8, SCRATCH.nbytes / (op.n_dofs * 8)


class TestScratchGauge:
    def test_set_on_growth_never_per_call(self, monkeypatch, r2_box):
        op, _, b = r2_box
        METRICS.reset()
        METRICS.enable()
        try:
            SCRATCH.clear()
            op.vmult(b)
            assert METRICS.get("repro_scratch_bytes").value == SCRATCH.nbytes > 0
            sets = []

            class Recorder:
                def set(self, value):
                    sets.append(value)

            monkeypatch.setattr(plans, "_SCRATCH_BYTES", Recorder())
            op.vmult(b)
            op.vmult(b)
            assert sets == []
        finally:
            METRICS.disable()
            METRICS.reset()


def test_jacobi_cg_run_maps_no_scipy_solvers():
    """scipy.linalg and scipy.sparse.linalg are imported where the AMG
    calls them, so a Jacobi-CG solve through a worker pool never maps
    them."""
    code = """
import sys
import numpy as np
from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel.runtime import DistributedSolverContext
from repro.solvers import JacobiPreconditioner, conjugate_gradient

forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
op = DGLaplaceOperator(DGDofHandler(forest, 2), GeometryField(forest, 2),
                       build_connectivity(forest), dirichlet_ids=(1,))
b = op.assemble_rhs(lambda x, y, z: x + y * z)
with DistributedSolverContext(op, None, n_workers=2) as ctx:
    res = conjugate_gradient(ctx.operator, b, JacobiPreconditioner(op), tol=1e-6)
assert res.converged
print(sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
