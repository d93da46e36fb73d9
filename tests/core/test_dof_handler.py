"""Direct tests of the DG/CG dof handlers and constraint machinery."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import CGLaplaceOperator, DGLaplaceOperator, VectorDGLaplace
from repro.core.operators.laplace import _cell_laplace_diagonal
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box, cylinder
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers.assemble import AssembledOperator, assemble_cg_laplace
from repro.solvers.multigrid import operator_to_dtype

from ..conftest import lane_block


def _conforming_box():
    return Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)


def _hanging_box():
    f = _conforming_box()
    return f.refine([f.leaves[0]]).balance()


def _cylinder():
    return Forest(cylinder(n_axial=2))


MESHES = {"box": _conforming_box, "hanging": _hanging_box, "cylinder": _cylinder}


@pytest.fixture(scope="module", params=sorted(MESHES))
def cg_space(request):
    """``(dof, CGLaplaceOperator)`` at k=2 with Dirichlet nodes on the
    conforming box, the 2:1 hanging box and the curved cylinder."""
    forest = MESHES[request.param]()
    dof = CGDofHandler(forest, 2, dirichlet_ids=(1,))
    if request.param == "hanging":
        assert any(entries for entries in dof.constraints.values())
    return dof, CGLaplaceOperator(dof, GeometryField(forest, 2))


def _rel_err(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


class TestDGDofHandler:
    def test_counts(self):
        forest = Forest(box(subdivisions=(2, 1, 1)))
        dof = DGDofHandler(forest, 3, n_components=3)
        assert dof.dofs_per_cell == 3 * 64
        assert dof.n_dofs == 2 * 3 * 64

    def test_views_are_views(self):
        """``lanes`` reshapes without copying: writes through the view
        land in the flat vector (the zero-cost gather/scatter of DG),
        node-major with the cell index fastest."""
        forest = Forest(box(subdivisions=(2, 1, 1)))
        dof = DGDofHandler(forest, 2)
        v = dof.zeros()
        lanes = dof.lanes(v)
        assert lanes.shape == (3, 3, 3, 2)
        lanes[1, 2, 0, 1] = 7.0
        assert v[(1 * 9 + 2 * 3 + 0) * 2 + 1] == 7.0
        assert np.shares_memory(v, lanes)


class TestCGNumbering:
    def test_shared_nodes_counted_once(self):
        """On a 2x1x1 box of degree k the shared face nodes unify:
        n_global = (2k+1)(k+1)^2."""
        forest = Forest(box(subdivisions=(2, 1, 1)))
        for k in (1, 2, 3):
            dof = CGDofHandler(forest, k)
            assert dof.n_global == (2 * k + 1) * (k + 1) ** 2

    def test_cylinder_cross_section_sharing(self):
        """The 12-cell disc shares the inner lattice between blocks; the
        global count matches vertices+edges+faces counting via Euler:
        simply require strictly fewer than cell-local dofs."""
        forest = Forest(cylinder(n_axial=2, smooth=False))
        dof = CGDofHandler(forest, 2)
        assert dof.n_global < forest.n_cells * 27
        # continuity: expanding a random master vector gives equal values
        # at all shared positions (checked by construction of expand)
        x = np.random.default_rng(0).standard_normal(dof.n_dofs)
        cells = dof.gather_cells(x)
        assert cells.shape == (3, 3, 3, forest.n_cells)

    def test_gather_scatter_adjoint(self):
        forest = Forest(box(subdivisions=(2, 1, 1))).refine_all(1)
        dof = CGDofHandler(forest, 2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(dof.n_dofs)
        cells = rng.standard_normal((3, 3, 3, forest.n_cells))
        lhs = np.sum(dof.gather_cells(x) * cells)
        rhs = x @ dof.scatter_add_cells(cells)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            CGDofHandler(Forest(box()), 0)


class TestHangingConstraints:
    def make(self, degree=2):
        f = Forest(box(subdivisions=(2, 1, 1)))
        f = f.refine([f.leaves[0]]).balance()
        return CGDofHandler(f, degree)

    def test_constraint_rows_partition_of_unity(self):
        """Interpolating the constant: every constrained dof's weights sum
        to one (no Dirichlet constraints here)."""
        dof = self.make()
        assert dof.constraints  # hanging faces exist
        for slave, entries in dof.constraints.items():
            assert np.isclose(sum(w for _, w in entries), 1.0, atol=1e-12)

    def test_masters_are_unconstrained(self):
        dof = self.make()
        for slave, entries in dof.constraints.items():
            assert dof.is_constrained[slave]
            for master, _ in entries:
                assert not dof.is_constrained[master]

    def test_expansion_matrix_shape_and_identity_part(self):
        dof = self.make()
        assert dof.C.shape == (dof.n_global, dof.n_dofs)
        # master rows carry exactly one unit entry
        masters = np.nonzero(~dof.is_constrained)[0]
        sub = dof.C[masters]
        assert np.allclose(sub.sum(axis=1), 1.0)
        assert sub.nnz == len(masters)

    def test_dirichlet_rows_empty(self):
        f = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1}))
        dof = CGDofHandler(f, 2, dirichlet_ids=(1,))
        # some nodes constrained to zero: their C rows are empty
        zero_rows = [g for g, e in dof.constraints.items() if not e]
        assert zero_rows
        row_sums = np.asarray(np.abs(dof.C[zero_rows]).sum(axis=1)).ravel()
        assert np.allclose(row_sums, 0.0)

    def test_nodal_points_roundtrip(self):
        dof = self.make()
        pts = dof.nodal_points()
        assert pts.shape == (dof.n_global, 3)
        assert pts.min() >= -1e-12 and pts.max() <= 2 + 1e-12


class TestCellMap:
    """``gather_cells`` / ``scatter_add_cells`` through the one sparse
    cell map ``G = P·C`` against implementation-independent references:
    the ``C`` expansion plus a fancy index, and ``np.add.at``; and bit
    for bit against the cell-major map the lane map was permuted from."""

    def test_gather_matches_expand_and_index(self, cg_space):
        dof, _ = cg_space
        x = np.random.default_rng(0).standard_normal(dof.n_dofs)
        ref = lane_block(dof.expand(x)[dof.cell_to_global])
        assert _rel_err(dof.gather_cells(x), ref) <= 1e-14

    def test_scatter_matches_add_at(self, cg_space):
        dof, _ = cg_space
        n = dof.n1
        cells = np.random.default_rng(1).standard_normal((dof.n_cells, n, n, n))
        r_global = np.zeros(dof.n_global)
        np.add.at(r_global, dof.cell_to_global.ravel(), cells.ravel())
        ref = dof.Ct @ r_global
        assert _rel_err(dof.scatter_add_cells(lane_block(cells).copy()), ref) <= 1e-14

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lane_map_is_bitwise_the_cell_major_map(self, cg_space, dtype):
        """``G x`` in lane order and ``Gᵀ c`` are the cell-major map's
        ``G x`` and ``Gᵀ c`` bit for bit, with ``Gᵀ`` summing each row in
        the cell-major entry order — also after the Jacobi diagonal was
        taken (scipy's ``power`` sorts a matrix in place)."""
        dof, op = cg_space
        op.diagonal()
        n = dof.n_cells * dof.n1**3
        P = sp.csr_matrix((np.ones(n), (np.arange(n), dof.cell_to_global.ravel())),
                          shape=(n, dof.n_global))
        G = P @ dof.C
        G, Gt = G.astype(dtype), G.T.tocsr().astype(dtype)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, dof.n_dofs)).astype(dtype)
        cells = rng.standard_normal((2, dof.n_cells) + (dof.n1,) * 3).astype(dtype)
        want = lane_block((G @ x.T).T.reshape(cells.shape))
        assert np.array_equal(dof.gather_cells(x), want)
        got = dof.scatter_add_cells(lane_block(cells).copy())
        assert np.array_equal(got, (Gt @ cells.reshape(2, -1).T).T)

    def test_diagonal_matches_squared_constraint_formula(self, cg_space):
        """``(G∘G)ᵀ ldiag`` is ``C²ᵀ`` applied to the scattered cell
        diagonals, summed in another order."""
        dof, op = cg_space
        ldiag = np.moveaxis(_cell_laplace_diagonal(op.kern, op.laplace_d), -1, 0)
        scattered = np.zeros(dof.n_global)
        np.add.at(scattered, dof.cell_to_global.ravel(), ldiag.ravel())
        C2 = dof.C.copy()
        C2.data = C2.data**2
        assert _rel_err(op.diagonal(), C2.T @ scattered) <= 1e-14

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_member_stack_is_bitwise_flat(self, cg_space, dtype):
        """A ``(2, n)`` stack is two flat calls bit for bit, and a float32
        input runs on the float32 map (the result stays float32)."""
        dof, op = cg_space
        op = operator_to_dtype(op, dtype)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, dof.n_dofs)).astype(dtype)
        n = dof.n1
        cells = rng.standard_normal((2, n, n, n, dof.n_cells)).astype(dtype)
        for fn, arg in ((dof.gather_cells, x), (dof.scatter_add_cells, cells),
                        (op.vmult, x)):
            stacked = fn(arg)
            assert stacked.dtype == dtype, fn.__name__
            for e in range(2):
                assert np.array_equal(stacked[e], fn(arg[e])), fn.__name__


class TestAnyLead:
    """``(*lead, n)`` with two lead axes: every Laplacian equals its six
    flat calls bit for bit (DESIGN.md §5, "One axis convention")."""

    @staticmethod
    def check(op, n_dofs):
        x = np.random.default_rng(3).standard_normal((2, 3, n_dofs))
        y = op.vmult(x)
        assert y.shape == x.shape
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(y[i, j], op.vmult(x[i, j]))

    def test_dg_laplace(self):
        forest = _conforming_box()
        dof = DGDofHandler(forest, 2)
        op = DGLaplaceOperator(dof, GeometryField(forest, 2),
                               build_connectivity(forest), dirichlet_ids=(1,))
        self.check(op, dof.n_dofs)

    def test_cg_laplace_and_gather(self, cg_space):
        dof, op = cg_space
        self.check(op, dof.n_dofs)
        x = np.random.default_rng(4).standard_normal((2, 3, dof.n_dofs))
        cells = dof.gather_cells(x)
        assert cells.shape == (2, 3) + (dof.n1,) * 3 + (dof.n_cells,)
        assert dof.scatter_add_cells(cells).shape == x.shape

    def test_assembled(self):
        forest = _hanging_box()
        dof = CGDofHandler(forest, 1, dirichlet_ids=(1,))
        op = AssembledOperator(assemble_cg_laplace(dof, GeometryField(forest, 1)))
        self.check(op, dof.n_dofs)

    @pytest.fixture(scope="class")
    def vector_laplace(self):
        forest = _conforming_box()
        scalar = DGLaplaceOperator(DGDofHandler(forest, 2), GeometryField(forest, 2),
                                   build_connectivity(forest), dirichlet_ids=(1,))
        return VectorDGLaplace(scalar, DGDofHandler(forest, 2, n_components=3))

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_velocity_is_three_scalar_fields(self, vector_laplace, lead):
        """Component-major layout: component ``i`` of the lane block is
        the ``i``-th third of every lead row viewed as a scalar lane
        block, and the view flattens back to the vector."""
        dof = vector_laplace.dof
        block = (dof.n1,) * 3 + (dof.n_cells,)
        x = np.random.default_rng(5).standard_normal(lead + (dof.n_dofs,))
        lanes = dof.lanes(x)
        assert lanes.shape == lead + (3,) + block
        assert np.shares_memory(lanes, x)
        for i in range(3):
            assert np.array_equal(lanes[..., i, :, :, :, :],
                                  x.reshape(lead + (3, -1))[..., i, :].reshape(lead + block))
        assert np.array_equal(lanes.reshape(lead + (-1,)), x)

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    def test_vector_laplace_is_its_scalar_stack(self, vector_laplace, lead):
        """``VectorDGLaplace.vmult`` is bitwise its scalar operator on the
        ``(3E, n)`` stack, and ``E = 1`` is bitwise the flat vector."""
        scalar = vector_laplace.scalar
        x = np.random.default_rng(6).standard_normal(lead + (vector_laplace.n_dofs,))
        y = vector_laplace.vmult(x)
        assert np.array_equal(y, scalar.vmult(x.reshape(-1, scalar.n_dofs)).reshape(x.shape))
        first = x.reshape(-1, vector_laplace.n_dofs)[:1]
        assert np.array_equal(vector_laplace.vmult(first)[0], vector_laplace.vmult(first[0]))
