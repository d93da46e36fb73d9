"""The Laplacian's metric stored by its sparsity: which meshes store the
diagonal cell metric and the normal-only face coefficient, and that the
compressed storage computes what the full one does on the same mesh."""

import numpy as np
import pytest

from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import CGLaplaceOperator, DGLaplaceOperator
from repro.lung.airway_mesh import airway_tree_mesh
from repro.lung.tree import grow_airway_tree
from repro.mesh import mapping
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel import InProcessGhostRuntime
from repro.perf.memory import laplace_transfer
from repro.robustness.config import RunConfig
from repro.solvers.assemble import assemble_cg_laplace
from repro.solvers.multigrid import operator_to_dtype

DEGREE = 3


def _box() -> Forest:
    return Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)


def _hanging_box() -> Forest:
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1}))
    return forest.refine([forest.leaves[0]]).balance()


def _beltrami_box() -> Forest:
    return Forest(box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})).refine_all(2)


def _lung() -> Forest:
    cfg = RunConfig(generations=2, degree=2, seed=0)
    return airway_tree_mesh(grow_airway_tree(cfg.generations, scale=cfg.scale, seed=cfg.seed)).forest


def _operator(forest, degree=2, dirichlet_ids=(1,)) -> DGLaplaceOperator:
    return DGLaplaceOperator(DGDofHandler(forest, degree), GeometryField(forest, degree),
                             build_connectivity(forest), dirichlet_ids=dirichlet_ids)


def _pattern(op) -> tuple[int, int]:
    """Stored cell metric entries and face coefficient components."""
    return len(op.laplace_d), len(op.face_data.b)


def _jinv_t_planes(op) -> int:
    """Stored entries of the flow operators' ``J^{-T}`` on ``op``'s mesh."""
    return len(op.geo.cell_metrics().jinv_t)


class TestDetection:
    @pytest.mark.parametrize("make", [_box, _hanging_box, _beltrami_box])
    def test_axis_aligned_meshes_are_diagonal(self, make):
        op = _operator(make())
        assert (_pattern(op), _jinv_t_planes(op)) == ((3, 1), 3)

    def test_curved_and_sheared_meshes_are_full(self, rotated_hanging_box, curved_hanging):
        forest, _ = rotated_hanging_box
        for op in (_operator(forest), curved_hanging[2],
                   _operator(Forest(bifurcation(opening_angle_deg=60.0))),
                   _operator(_lung(), degree=1)):
            assert (_pattern(op), _jinv_t_planes(op)) == ((6, 3), 9)


@pytest.fixture(scope="module")
def box_pair():
    """The k=3 box operator with its diagonal metric, and with the full
    metric forced (no entry counts as roundoff)."""
    diagonal = _operator(_box(), DEGREE)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mapping, "METRIC_ROUNDOFF", 0.0)
        full = _operator(_box(), DEGREE)
    assert (_pattern(diagonal), _pattern(full)) == ((3, 1), (6, 3))
    assert (_jinv_t_planes(diagonal), _jinv_t_planes(full)) == (3, 9)
    return diagonal, full


def _close(a, b, rtol):
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


class TestDiagonalEqualsFull:
    def test_vmult(self, box_pair, rng):
        diagonal, full = box_pair
        x = rng.standard_normal(full.n_dofs)
        _close(diagonal.vmult(x), full.vmult(x), 1e-13)
        x32 = x.astype(np.float32)
        d32, f32 = (operator_to_dtype(op, np.float32) for op in box_pair)
        _close(d32.vmult(x32), f32.vmult(x32), 1e-5)

    def test_diagonal(self, box_pair):
        diagonal, full = box_pair
        _close(diagonal.diagonal(), full.diagonal(), 1e-13)
        d32, f32 = (operator_to_dtype(op, np.float32) for op in box_pair)
        _close(d32.diagonal(), f32.diagonal(), 1e-5)

    def test_assemble_rhs(self, box_pair):
        diagonal, full = box_pair

        def g(x, y, z):
            return np.sin(x) * np.cos(2 * y) + z

        for data in ({"dirichlet": g}, {"neumann": g}, {"f": g, "dirichlet": g, "neumann": g}):
            _close(diagonal.assemble_rhs(**data), full.assemble_rhs(**data), 1e-13)

    def test_cg_levels(self, box_pair):
        diagonal, full = box_pair
        dof = CGDofHandler(diagonal.geo.forest, DEGREE, dirichlet_ids=(1,))
        _close(assemble_cg_laplace(dof, diagonal.geo).toarray(),
               assemble_cg_laplace(dof, full.geo).toarray(), 1e-13)
        op_d, op_f = CGLaplaceOperator(dof, diagonal.geo), CGLaplaceOperator(dof, full.geo)
        x = np.random.default_rng(1).standard_normal(dof.n_dofs)
        _close(op_d.vmult(x), op_f.vmult(x), 1e-13)
        _close(op_d.diagonal(), op_f.diagonal(), 1e-13)

    def test_work_model_follows_the_pattern(self, box_pair):
        diagonal, full = box_pair
        assert diagonal.work_model()["flops"] < full.work_model()["flops"]
        assert diagonal.work_model()["bytes"] < full.work_model()["bytes"]

    def test_transfer_model_charges_the_stored_values(self, box_pair):
        """Per cell: 3 metric values per quadrature point, and 1 + 1 + 1
        per face point (``c`` of both sides and ``jxw``) on 3 face
        sheets."""
        op = box_pair[0]
        nq, N = op.kern.n_q_points, op.dof.n_cells
        model = laplace_transfer(DEGREE, nq, 8, 1, *_pattern(op))
        assert op.laplace_d.nbytes == 3 * nq ** 3 * 8 * N
        vec_and_meta = 3 * (DEGREE + 1) ** 3 * 8 + 8 * 4
        assert model.bytes_per_cell == vec_and_meta + 3 * nq ** 3 * 8 + 3 * (3 * nq * nq * 8)


class TestDiagonalContracts:
    def test_unit_ensemble_is_flat_bitwise(self, box_pair, rng):
        op = box_pair[0]
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(op.vmult(x[None])[0], op.vmult(x))
        X = rng.standard_normal((3, op.n_dofs))
        Y = op.vmult(X)
        assert all(np.array_equal(Y[e], op.vmult(X[e])) for e in range(3))

    @pytest.mark.parametrize("n_ranks", [2, 3, 5])
    def test_distributed_is_serial_bitwise(self, box_pair, rng, n_ranks):
        op = box_pair[0]
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(InProcessGhostRuntime(op, n_ranks).vmult(x), op.vmult(x))
