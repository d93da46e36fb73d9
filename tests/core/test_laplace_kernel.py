"""The normal-derivative SIP kernel: what it stores, what it reads, and
that its one code path is symmetric, precision-stable and ensemble-
transparent on the meshes where face bugs hide (curved, 2:1 hanging,
non-identity orientations at once)."""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.core.sum_factorization import apply_1d_2d
from repro.lung.airway_mesh import INLET_ID, airway_tree_mesh
from repro.lung.tree import grow_airway_tree
from repro.mesh.connectivity import build_connectivity, orient_face_array
from repro.mesh.generators import box
from repro.mesh.mapping import SYM_SLOT, GeometryField
from repro.mesh.octree import Forest
from repro.perf.memory import laplace_transfer
from repro.robustness.config import RunConfig
from repro.solvers.multigrid import operator_to_dtype
from repro.verification import check_symmetry

from ..conftest import SHEAR, dense_jinv_t

DEGREE = 2


def _frame_jacobian(geo, cells, face, o=None, subface=None):
    """``dX / d(n, a, b)`` (F, 3, 3, q, q) at the minus-frame quadrature
    points of one face side: derivatives of the side's geometry traces
    oriented into the minus frame."""
    kern = geo.kernel
    X = geo.X[cells]
    dX = kern.nodal_gradients(np.moveaxis(X, 0, -1).copy())[face // 2]  # lane block
    tn = kern.face_nodal_trace(np.moveaxis(dX, -1, 0), face)
    t = kern.face_nodal_trace(X, face)
    if o is not None:
        t, tn = orient_face_array(t, o), orient_face_array(tn, o)
    t = np.ascontiguousarray(t)
    cols = (tn, apply_1d_2d(kern.nodal_diff, t, 1), apply_1d_2d(kern.nodal_diff, t, 0))
    return np.stack([kern.face_nodal_to_quad(np.ascontiguousarray(col), subface)
                     for col in cols], axis=2)


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
        D = op.laplace_d
        assert D.dtype == dtype and D.shape == (6, nq, nq, nq, op.dof.n_cells)
        cell_bytes = D.nbytes // op.dof.n_cells
        # faces: the one store the face loop reads — 7 values per
        # interior face quadrature point (b of both sides, a), 4 per
        # Dirichlet face (b, a)
        fd = op.face_data
        probe = op.face_data = _Recording(fd)
        try:
            op.vmult(rng.standard_normal(op.n_dofs).astype(dtype))
        finally:
            op.face_data = fd
        assert probe.read == {"a", "b"}
        assert all(getattr(fd, name).dtype == dtype for name in probe.read)
        n_int = conn.n_interior_faces
        n_dir = sum(b.n_faces for b in conn.boundary if b.boundary_id in op.dirichlet_ids)
        assert fd.b.shape == (3, 2 * n_int + n_dir, nq * nq)
        assert fd.a.shape == (n_int + n_dir, nq * nq)
        face_bytes = 7 * nq * nq * pb
        assert fd.b.nbytes + fd.a.nbytes == n_int * face_bytes + n_dir * 4 * nq * nq * pb
        # stored once: every array the clone does not share with its
        # master is at the compute dtype (no second, float64 copy)
        for name, value in vars(op).items():
            if value is vars(op64).get(name):
                continue
            arrays = ([value] if isinstance(value, np.ndarray) else
                      [getattr(value, f.name) for f in fields(value)] if is_dataclass(value)
                      else [])
            assert all(a.dtype == dtype for a in arrays if a.dtype.kind == "f"), name
        # the model's per-cell charge: 3 face sheets + the cell block
        assert model.bytes_per_cell == vec_and_meta + cell_bytes + 3 * face_bytes


class TestNormalDerivativeKernel:
    def test_symmetric(self, curved_hanging, rng):
        check_symmetry(curved_hanging[2], rng)

    def test_coefficients_are_jinv_n(self, curved_hanging):
        """``c = J^{-1} n`` on both sides, in the minus-frame ``(n, a, b)``
        components: ``J c`` must reproduce the stored normal, with the
        frame Jacobian ``dX/d(n, a, b)`` re-derived from each side's
        oriented nodal traces of the geometry field."""
        geo, conn, _ = curved_hanging
        fms, bms = geo.all_face_metrics(conn)
        sides = [(fm, fm.c_m, (b.cells_m, b.face_m)) for b, fm in zip(conn.interior, fms)]
        sides += [(fm, fm.c_p, (b.cells_p, b.face_p, b.orientation, b.subface))
                  for b, fm in zip(conn.interior, fms)]
        sides += [(fm, fm.c_m, (b.cells, b.face)) for b, fm in zip(conn.boundary, bms)]
        assert all(fm.c_p is None for fm in bms)
        for fm, c, side in sides:
            assert c.flags.c_contiguous and c.shape == (3,) + fm.jxw.reshape(len(fm.jxw), -1).shape
            J = _frame_jacobian(geo, *side)
            np.testing.assert_allclose(
                np.einsum("fikab,kfab->fiab", J, c.reshape((3,) + fm.jxw.shape)),
                fm.normal, atol=1e-11,
            )

    def test_cell_metric_is_the_symmetric_block(self, curved_hanging):
        geo, _, op = curved_hanging
        cm = geo.cell_metrics()
        jinv_t = dense_jinv_t(cm.jinv_t)
        full = np.einsum("ji...,jk...->ik...", jinv_t, jinv_t) * cm.jxw
        for a in range(3):
            for b in range(3):
                np.testing.assert_allclose(
                    cm.laplace_d[SYM_SLOT[a][b]], full[a, b], rtol=1e-12, atol=1e-14
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
            # the face loop runs the same chunks, GEMM row counts and
            # elementwise flux per member as solo
            assert np.array_equal(Y[e], op.vmult(X[e]))
        assert np.array_equal(op.vmult(X[:1])[0], op.vmult(X[0]))


class TestGalerkinConsistency:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_linear_solution_on_every_orientation(self, rotated_hanging_box, degree):
        """``A u = b`` for a linear ``u``: the SIP form is consistent, so
        the interior fluxes cancel exactly — which needs every face
        side's normal derivative right, whatever its orientation (swaps
        and flips) or subface."""
        forest, conn = rotated_hanging_box
        geo = GeometryField(forest, degree)
        op = DGLaplaceOperator(DGDofHandler(forest, degree), geo, conn, dirichlet_ids=(1,))
        a = np.array([0.3, -1.1, 0.7])

        def dudn(*xyz):
            # side d of the sheared unit box: reference coordinate d at
            # 0 or 1, outward normal along -/+ row d of SHEAR^{-1}
            ref = np.einsum("ij,j...->i...", np.linalg.inv(SHEAR), np.stack(xyz))
            n = np.linalg.inv(SHEAR).T / np.linalg.norm(np.linalg.inv(SHEAR), axis=1)
            side = (ref > 1 - 1e-12) * 1.0 - (ref < 1e-12)
            return sum(side[d] * (a @ n[:, d]) for d in range(3))

        b = op.assemble_rhs(dirichlet=lambda x, y, z: a[0] * x + a[1] * y + a[2] * z,
                            neumann=dudn)
        u = np.einsum("i,ci...->...c", a, geo.X).reshape(-1)  # lane order
        np.testing.assert_allclose(op.vmult(u), b, rtol=0, atol=1e-11 * np.abs(b).max())


def _pressure_operator(forest, dirichlet_ids):
    """The k=1 pressure Poisson operator of a k=2 flow solver."""
    return DGLaplaceOperator(DGDofHandler(forest, 1), GeometryField(forest, 1),
                             build_connectivity(forest), dirichlet_ids=dirichlet_ids)


def _matmul_calls(op, monkeypatch) -> int:
    """``np.matmul`` calls of one fp64 mat-vec."""
    x = np.random.default_rng(0).standard_normal(op.n_dofs)
    op.vmult(x)  # plans and workspaces are built on the first call
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "matmul", counting)
        op.vmult(x)
    return len(calls)


def _beltrami_box(shear=None) -> Forest:
    """The r=2 Beltrami box, optionally mapped by ``shear``."""
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    if shear is not None:
        mesh.vertices = mesh.vertices @ shear.T
    return Forest(mesh).refine_all(2)


class TestFaceWorkScalesWithChunks:
    def test_lung_pressure_calls_no_more_than_beltrami(self, monkeypatch):
        """The g=2 lung pressure operator has 15 face batches (interior
        plus Dirichlet), the sheared r=2 Beltrami box 6, both with the
        full metric pattern: one face loop makes the GEMM count follow
        the chunks, not the batches."""
        cfg = RunConfig(generations=2, degree=2, seed=0)
        lung = airway_tree_mesh(grow_airway_tree(cfg.generations, scale=cfg.scale, seed=cfg.seed))
        lung_op = _pressure_operator(lung.forest, (INLET_ID, *lung.outlet_ids))
        box_op = _pressure_operator(_beltrami_box(SHEAR), ())
        assert len(lung_op.face_data.b) == len(box_op.face_data.b) == 3
        n_batches = len(lung_op.conn.interior) + sum(
            b.boundary_id in lung_op.dirichlet_ids for b in lung_op.conn.boundary)
        assert n_batches > 2 * len(box_op.conn.interior)
        assert _matmul_calls(lung_op, monkeypatch) <= _matmul_calls(box_op, monkeypatch)

    def test_axis_aligned_box_skips_the_tangential_gemms(self, monkeypatch):
        """A normal-only ``J^{-1} n`` drops the tangential-derivative
        GEMM and its transpose: two GEMMs fewer per chunk than the same
        box sheared."""
        sheared = _pressure_operator(_beltrami_box(SHEAR), ())
        aligned = _pressure_operator(_beltrami_box(), ())
        assert (len(aligned.face_data.b), len(sheared.face_data.b)) == (1, 3)
        chunks = len(aligned.face_loop.chunks)
        assert chunks == len(sheared.face_loop.chunks)
        assert (_matmul_calls(sheared, monkeypatch) - _matmul_calls(aligned, monkeypatch)
                == 2 * chunks)

    def test_lung_convective_calls_no_more_than_beltrami(self, monkeypatch):
        """One ``ConvectiveOperator.apply``: the g=2 lung has 14 face
        batches (interior plus every boundary id), the r=2 Beltrami box 9;
        the value loop makes the GEMM count follow the chunks."""
        from repro.core.operators import ConvectiveOperator
        from repro.ns.bc import BoundaryConditions, PressureDirichlet

        def convective(forest, pressure_ids):
            conn = build_connectivity(forest)
            op = ConvectiveOperator(
                DGDofHandler(forest, 2, n_components=3), GeometryField(forest, 2, n_q_points=4),
                conn, BoundaryConditions({i: PressureDirichlet(0.0) for i in pressure_ids}))
            op.vmult = op.apply
            return op, len(conn.interior) + len(conn.boundary)

        cfg = RunConfig(generations=2, degree=2, seed=0)
        lung = airway_tree_mesh(grow_airway_tree(cfg.generations, scale=cfg.scale, seed=cfg.seed))
        lung_op, lung_batches = convective(lung.forest, (INLET_ID, *lung.outlet_ids))
        box_op, box_batches = convective(Forest(box(
            subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})).refine_all(2), ())
        assert lung_batches > box_batches
        assert _matmul_calls(lung_op, monkeypatch) <= _matmul_calls(box_op, monkeypatch)
