"""The normal-derivative SIP kernel: what it stores, what it reads, and
that its one code path is symmetric, precision-stable and ensemble-
transparent on the meshes where face bugs hide (curved, 2:1 hanging,
non-identity orientations at once)."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation
from repro.mesh.mapping import SYM_SLOT, GeometryField
from repro.mesh.octree import Forest
from repro.perf.memory import laplace_transfer
from repro.solvers.multigrid import operator_to_dtype
from repro.verification import check_symmetry

DEGREE = 2


@pytest.fixture
def curved_hanging(rng):
    """Randomized bifurcation (curved, non-identity orientations) with
    one randomly picked cell refined (2:1 hanging faces)."""
    forest = Forest(bifurcation(opening_angle_deg=float(rng.uniform(40.0, 80.0))))
    pick = int(rng.integers(0, forest.n_cells))
    forest = forest.refine([forest.leaves[pick]]).balance()
    geo = GeometryField(forest, DEGREE)
    conn = build_connectivity(forest)
    assert any(b.subface is not None for b in conn.interior)
    assert any(not b.orientation.is_identity for b in conn.interior)
    op = DGLaplaceOperator(DGDofHandler(forest, DEGREE), geo, conn, dirichlet_ids=(1,))
    return geo, conn, op


class _Recording:
    """Attribute proxy that records which fields a kernel reads."""

    def __init__(self, inner):
        self._inner, self.read = inner, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._inner, name)


class TestStorageEqualsTransferModel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kernel_reads_what_the_model_charges(self, curved_hanging, rng, dtype):
        _, conn, op64 = curved_hanging
        op = operator_to_dtype(op64, dtype)
        pb = np.dtype(dtype).itemsize
        nq = op.kern.n_q_points
        model = laplace_transfer(DEGREE, nq, precision_bytes=pb)
        vec_and_meta = 3 * (DEGREE + 1) ** 3 * pb + 8 * 4
        # cells: 6 values per quadrature point
        D = op.cell_metrics.laplace_d
        assert D.dtype == dtype and D.shape == (6, op.dof.n_cells, nq, nq, nq)
        cell_bytes = D.nbytes // op.dof.n_cells
        # faces: 7 values per quadrature point (+ tau per face)
        u = op.dof.cell_view(rng.standard_normal(op.n_dofs).astype(dtype))
        for batch, fm, tau in zip(conn.interior, op.face_metrics, op.tau):
            probe = _Recording(fm)
            op.face_terms(
                batch, probe, tau,
                op.fk.eval_side(u[batch.cells_m], batch.face_m),
                op.fk.eval_side(u[batch.cells_p], batch.face_p,
                                batch.orientation, batch.subface),
            )
            assert probe.read == {"c_m", "c_p", "jxw"}
            # ... and no 3x3 block is stored beside them
            assert fm.jinv_t is None
            read = [getattr(fm, name) for name in sorted(probe.read)]
            assert all(a.dtype == dtype for a in read) and tau.dtype == dtype
            face_bytes = sum(a.nbytes for a in read) // batch.n_faces
            assert face_bytes == 7 * nq * nq * pb
            assert tau.shape == (batch.n_faces,)
            # the model's per-cell charge: 3 face sheets + the cell block
            assert model.bytes_per_cell == vec_and_meta + cell_bytes + 3 * face_bytes


class TestNormalDerivativeKernel:
    def test_symmetric(self, curved_hanging, rng):
        check_symmetry(curved_hanging[2], rng)

    def test_coefficients_are_jinv_n(self, curved_hanging):
        """``c = J^{-1} n`` on both sides: ``J c`` must reproduce the
        stored normal, with ``J`` re-derived from the geometry field."""
        geo, conn, op = curved_hanging
        for batch, fm in zip(conn.interior, op.face_metrics):
            sides = (
                (fm.c_m, geo._side_face_data(batch.cells_m, batch.face_m)[1]),
                (fm.c_p, geo._side_face_data(batch.cells_p, batch.face_p,
                                             batch.orientation, batch.subface)[1]),
            )
            for c, J in sides:
                assert c.flags.c_contiguous and c.shape == (3,) + fm.jxw.shape
                np.testing.assert_allclose(
                    np.einsum("fijab,jfab->fiab", J, c), fm.normal, atol=1e-11
                )
        for batch, fm in zip(conn.boundary, op.bdry_metrics):
            assert fm.c_p is None
            J = geo._side_face_data(batch.cells, batch.face)[1]
            np.testing.assert_allclose(
                np.einsum("fijab,jfab->fiab", J, fm.c_m), fm.normal, atol=1e-11
            )

    def test_cell_metric_is_the_symmetric_block(self, curved_hanging):
        geo, _, op = curved_hanging
        cm = geo.cell_metrics()
        full = np.einsum("cji...,cjk...->cik...", cm.jinv_t, cm.jinv_t) * cm.jxw[:, None, None]
        for a in range(3):
            for b in range(3):
                np.testing.assert_allclose(
                    cm.laplace_d[SYM_SLOT[a][b]], full[:, a, b], rtol=1e-12, atol=1e-14
                )

    def test_float32_clone_tracks_float64(self, curved_hanging, rng):
        op = curved_hanging[2]
        x = rng.standard_normal(op.n_dofs)
        y64 = op.vmult(x)
        y32 = operator_to_dtype(op, np.float32).vmult(x.astype(np.float32))
        assert y32.dtype == np.float32
        assert np.linalg.norm(y32 - y64) <= 2e-5 * np.linalg.norm(y64)

    def test_ensemble_members_equal_solo_runs(self, curved_hanging, rng):
        op = curved_hanging[2]
        X = rng.standard_normal((3, op.n_dofs))
        Y = op.vmult(X)
        for e in range(3):
            # one-face batches fold to a single GEMM row when run solo
            # (differently rounded gemv path), hence not bitwise
            solo = op.vmult(X[e])
            np.testing.assert_allclose(Y[e], solo, rtol=1e-12,
                                       atol=1e-12 * np.abs(solo).max())
        assert np.array_equal(op.vmult(X[:1])[0], op.vmult(X[0]))
