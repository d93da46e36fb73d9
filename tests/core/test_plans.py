"""Tests of the execution-plan layer (:mod:`repro.core.plans`) and of the
planned operator paths against implementation-independent references.

The plan primitives are compared with the numpy builtins they replace
(``np.add.at``, fresh ``np.empty``); the metric helpers that replaced the
einsum plan cache are tested in ``tests/ns/test_flow_metric.py``.  The
operator applications are pinned to fingerprints the pre-plan reference
execution produced before it was deleted (``tests/golden``), and the
closed-form diagonal to the diagonal of the dense matrix assembled from
``vmult`` — on meshes with hanging faces and with non-identity face
orientations (the bifurcation junction).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.core.plans import ScatterPlan, Workspace
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers.multigrid import operator_to_dtype
from repro.verification import compare_golden, load_golden
from repro.verification.golden import _operator_fingerprints

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "verification.json"


@pytest.fixture(scope="module")
def hanging_forest():
    """Box forest with one extra-refined cell: real hanging faces."""
    f = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
    return f.refine([f.leaves[0]]).balance()


@pytest.fixture(scope="module")
def bifurcation_mesh():
    """Tube junction: non-identity face orientations."""
    return Forest(bifurcation())


def make_dg_laplace(forest, degree, dirichlet=(1,)):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return dof, conn, DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet)


class TestScatterPlan:
    def test_unique_indices_match_add_at(self):
        rng = np.random.default_rng(0)
        idx = rng.permutation(50)[:20]
        contrib = rng.standard_normal((20, 3, 3))
        ref = rng.standard_normal((50, 3, 3))
        out = ref.copy()
        np.add.at(ref, idx, contrib)
        plan = ScatterPlan(idx, 50)
        assert plan.is_unique
        plan.add(out, contrib)
        assert np.array_equal(out, ref)

    def test_duplicate_indices_match_add_at(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 12, size=200)
        contrib = rng.standard_normal((200, 2, 2))
        ref = np.zeros((12, 2, 2))
        out = np.zeros((12, 2, 2))
        np.add.at(ref, idx, contrib)
        plan = ScatterPlan(idx, 12)
        assert not plan.is_unique
        plan.add(out, contrib)
        # reduceat folds duplicates before the indexed add: same sums up
        # to floating-point association
        np.testing.assert_allclose(out, ref, rtol=1e-14, atol=1e-14)

    def test_empty_plan_is_noop(self):
        out = np.ones((4, 2))
        ScatterPlan(np.array([], dtype=np.intp), 4).add(out, np.zeros((0, 2)))
        assert np.array_equal(out, np.ones((4, 2)))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ScatterPlan(np.array([0, 5]), 5)
        with pytest.raises(ValueError):
            ScatterPlan(np.array([-1, 0]), 5)

    @pytest.mark.parametrize("mesh_fixture", ["hanging_forest", "bifurcation_mesh"])
    def test_mesh_face_batches_match_add_at(self, mesh_fixture, request):
        """The real per-batch index sets (hanging faces, rotated faces)
        scatter identically to ``np.add.at``."""
        forest = request.getfixturevalue(mesh_fixture)
        _, conn, _ = make_dg_laplace(forest, 2)
        if mesh_fixture == "hanging_forest":
            assert conn.n_hanging_faces > 0
        else:
            assert conn.mixed_orientation_fraction() > 0
        rng = np.random.default_rng(2)
        n_cells = forest.n_cells
        for batch in conn.interior:
            for cells in (batch.cells_m, batch.cells_p):
                contrib = rng.standard_normal((len(cells), 3, 3, 3))
                ref = np.zeros((n_cells, 3, 3, 3))
                out = np.zeros((n_cells, 3, 3, 3))
                np.add.at(ref, cells, contrib)
                ScatterPlan(cells, n_cells).add(out, contrib)
                np.testing.assert_allclose(out, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("unique", [True, False])
    def test_any_axis_is_bitwise_axis0(self, unique):
        """Behind two leading axes the scatter runs the axis-0 operation
        per leading index (unique and duplicate index sets alike)."""
        rng = np.random.default_rng(3)
        idx = rng.permutation(12)[:5] if unique else rng.integers(0, 12, 30)
        contrib = rng.standard_normal((2, 3, len(idx), 4))
        out = rng.standard_normal((2, 3, 12, 4))
        ref = out.copy()
        plan = ScatterPlan(idx, 12)
        assert plan.is_unique == unique
        plan.add(out, contrib, axis=2)
        for i, j in np.ndindex(2, 3):
            plan.add(ref[i, j], contrib[i, j])
        assert np.array_equal(out, ref)


class TestWorkspace:
    def test_take_reuses_buffer(self):
        ws = Workspace()
        a = ws.take("t", (4, 4))
        b = ws.take("t", (4, 4))
        assert a is b
        assert ws.n_buffers == 1

    def test_tag_shares_bytes_across_shape_and_dtype(self):
        """One byte buffer per tag, viewed at every shape and dtype, grown
        only by a larger request; distinct tags never alias."""
        ws = Workspace()
        a = ws.take("t", (4,))
        b = ws.take("u", (4,))
        d = ws.take("t", (2, 2), np.float32)
        assert np.shares_memory(a, d) and not np.shares_memory(a, b)
        assert d.shape == (2, 2) and d.dtype == np.float32
        assert (ws.n_buffers, ws.nbytes) == (2, 4 * 8 + 4 * 8)
        c = ws.take("t", (5,))
        assert not np.shares_memory(a, c)
        assert (ws.n_buffers, ws.nbytes) == (2, 5 * 8 + 4 * 8)
        assert np.shares_memory(ws.take("t", (4,), np.float32), c)
        ws.clear()
        assert (ws.n_buffers, ws.nbytes) == (0, 0)

    def test_zeros(self):
        ws = Workspace()
        a = ws.take("t", (3,))
        a[:] = 7.0
        z = ws.zeros("t", (3,))
        assert z is a
        assert np.array_equal(z, np.zeros(3))


class TestPlannedVmultEquivalence:
    """Planned execution == the committed fingerprints of the pre-plan
    reference execution (rtol 1e-10; fp32 clone 2e-5)."""

    @pytest.fixture(scope="class")
    def computed(self):
        return _operator_fingerprints()

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden(GOLDEN_PATH)

    def check(self, name, computed, golden):
        one = dict(golden, metrics={name: golden["metrics"][name]})
        assert compare_golden({name: computed[name]}, one) == []

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_dg_laplace_hanging(self, computed, golden, degree):
        self.check(f"vmult_dg_laplace_hanging_k{degree}", computed, golden)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dg_laplace_bifurcation(self, computed, golden, degree):
        self.check(f"vmult_dg_laplace_bifurcation_k{degree}", computed, golden)

    def test_dg_laplace_float32_clone(self, computed, golden):
        self.check("vmult_dg_laplace_hanging_k2_float32", computed, golden)

    def test_cg_laplace(self, computed, golden):
        self.check("vmult_cg_laplace_hanging_k2", computed, golden)

    def test_mass(self, computed, golden):
        self.check("vmult_mass_bifurcation_k2", computed, golden)

    def test_vector_laplace(self, computed, golden):
        self.check("vmult_vector_laplace_hanging_k2", computed, golden)

    def test_assemble_rhs(self, computed, golden):
        self.check("assemble_rhs_dg_laplace_hanging_k2", computed, golden)

    @pytest.mark.parametrize("mesh", ["hanging", "bifurcation"])
    @pytest.mark.parametrize("entry", [
        "apply_convective", "apply_divergence", "apply_divergence_interior_trace",
        "apply_gradient", "vmult_penalty", "pressure_neumann_rhs",
        "viscous_boundary_rhs",
    ])
    def test_flow_operators(self, computed, golden, entry, mesh):
        self.check(f"{entry}_{mesh}_k2", computed, golden)

    def test_warm_workspace_is_deterministic(self, hanging_forest):
        """A second application reuses the workspace buffers the first
        one allocated and must reproduce it bit for bit."""
        _, conn, op = make_dg_laplace(hanging_forest, 2)
        assert conn.n_hanging_faces > 0
        x = np.random.default_rng(0).standard_normal(op.n_dofs)
        assert np.array_equal(op.vmult(x), op.vmult(x))


def dense_matrix(op, batch: int = 16) -> np.ndarray:
    """``A`` assembled from ``op.vmult`` on unit vectors, ``batch``
    columns per application on the ensemble axis."""
    eye = np.eye(op.n_dofs, dtype=op.dtype)
    rows = [op.vmult(eye[i:i + batch]) for i in range(0, op.n_dofs, batch)]
    return np.concatenate(rows).T


class TestFastDiagonal:
    """Closed-form ``diagonal()`` == diagonal of the dense matrix built
    from ``vmult``, which must also come out symmetric."""

    def check(self, op, tol):
        A = dense_matrix(op)
        diag = np.diag(A)
        np.testing.assert_allclose(A, A.T, rtol=0, atol=tol * np.abs(A).max())
        np.testing.assert_allclose(op.diagonal(), diag, rtol=0,
                                   atol=tol * np.abs(diag).max())

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_hanging(self, hanging_forest, degree):
        _, conn, op = make_dg_laplace(hanging_forest, degree)
        assert conn.n_hanging_faces > 0
        self.check(op, 1e-12)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_bifurcation(self, bifurcation_mesh, degree):
        _, conn, op = make_dg_laplace(bifurcation_mesh, degree)
        assert conn.mixed_orientation_fraction() > 0
        self.check(op, 1e-12)

    def test_curved_hanging(self, curved_hanging):
        """Reoriented, 2:1 subface-interpolated and curved faces at once
        (no benchmark mesh has a row that is all three)."""
        self.check(curved_hanging[2], 1e-12)

    def test_float32_clone(self, hanging_forest):
        _, _, op = make_dg_laplace(hanging_forest, 2)
        self.check(operator_to_dtype(op, np.float32), 1e-5)
