"""Tests of transfers and the hybrid multigrid preconditioner — iteration
counts and mixed precision per Section 3.4 / Figures 9-10."""

import numpy as np
import pytest

from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import CGLaplaceOperator, DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers import (
    HybridMultigridPreconditioner,
    conjugate_gradient,
    dg_from_cg,
    h_transfer,
    p_transfer,
)
from repro.solvers.assemble import AssembledOperator, assemble_cg_laplace
from repro.solvers.multigrid import operator_to_dtype


class TestTransfers:
    def test_dg_from_cg_embeds_polynomials(self):
        forest = Forest(box(subdivisions=(2, 1, 1)))
        cg = CGDofHandler(forest, 2)
        dg = DGDofHandler(forest, 2)
        T = dg_from_cg(dg, cg)
        # a linear function in the CG space maps to the same function in DG
        pts = cg.nodal_points()
        masters = np.nonzero(~cg.is_constrained)[0]
        f = lambda p: 2 * p[:, 0] - p[:, 1] + 0.5 * p[:, 2]
        xc = f(pts)[masters]
        xd = T.prolongate(xc)
        geo = GeometryField(forest, 2)
        cm = geo.cell_metrics()
        vals = geo.kernel.values(dg.lanes(xd))
        exact = 2 * cm.points[0] - cm.points[1] + 0.5 * cm.points[2]
        assert np.allclose(vals, exact, atol=1e-10)

    def test_p_transfer_preserves_coarse_polynomials(self):
        forest = Forest(box(subdivisions=(2, 1, 1)))
        fine = CGDofHandler(forest, 3)
        coarse = CGDofHandler(forest, 1)
        T = p_transfer(fine, coarse)
        pts_c = coarse.nodal_points()
        masters_c = np.nonzero(~coarse.is_constrained)[0]
        xc = (1 + pts_c[:, 0] + 2 * pts_c[:, 2])[masters_c]
        xf = T.prolongate(xc)
        pts_f = fine.nodal_points()
        masters_f = np.nonzero(~fine.is_constrained)[0]
        exact = (1 + pts_f[:, 0] + 2 * pts_f[:, 2])[masters_f]
        assert np.allclose(xf, exact, atol=1e-10)

    def test_h_transfer_preserves_polynomials(self):
        fine_forest = Forest(box(subdivisions=(1, 1, 1))).refine_all(2)
        coarse_forest, cmap = fine_forest.global_coarsening_level()
        fine = CGDofHandler(fine_forest, 2)
        coarse = CGDofHandler(coarse_forest, 2)
        T = h_transfer(fine, coarse, cmap)
        pts_c = coarse.nodal_points()
        mc = np.nonzero(~coarse.is_constrained)[0]
        f = lambda p: p[:, 0] ** 2 - p[:, 1] * p[:, 2]
        xc = f(pts_c)[mc]
        xf = T.prolongate(xc)
        pts_f = fine.nodal_points()
        mf = np.nonzero(~fine.is_constrained)[0]
        assert np.allclose(xf, f(pts_f)[mf], atol=1e-10)

    def test_h_transfer_on_adaptive_mesh(self):
        f = Forest(box(subdivisions=(2, 1, 1)))
        f = f.refine([f.leaves[0]]).balance()
        fine_forest = f.refine_all(1)
        coarse_forest, cmap = fine_forest.global_coarsening_level()
        fine = CGDofHandler(fine_forest, 1)
        coarse = CGDofHandler(coarse_forest, 1)
        T = h_transfer(fine, coarse, cmap)
        pts_c = coarse.nodal_points()
        mc = np.nonzero(~coarse.is_constrained)[0]
        xc = (3 * pts_c[:, 0] - pts_c[:, 2])[mc]
        xf = T.prolongate(xc)
        pts_f = fine.nodal_points()
        mf = np.nonzero(~fine.is_constrained)[0]
        assert np.allclose(xf, (3 * pts_f[:, 0] - pts_f[:, 2])[mf], atol=1e-10)

    def test_restriction_is_transpose(self, rng):
        forest = Forest(box(subdivisions=(2, 1, 1)))
        fine = CGDofHandler(forest, 2)
        coarse = CGDofHandler(forest, 1)
        T = p_transfer(fine, coarse)
        xc = rng.standard_normal(coarse.n_dofs)
        rf = rng.standard_normal(fine.n_dofs)
        assert np.isclose(rf @ T.prolongate(xc), xc @ T.restrict(rf), rtol=1e-12)


def _refined_box(hanging):
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
    return forest.refine([forest.leaves[0]]).balance() if hanging else forest


@pytest.mark.parametrize("hanging", [False, True])
class TestAssembledLevels:
    """The degree-1 levels apply the assembled ``C^T A C`` of the
    matrix-free operator they replace."""

    @staticmethod
    def _pair(hanging):
        forest = _refined_box(hanging)
        dof = CGDofHandler(forest, 1, build_connectivity(forest), dirichlet_ids=(1,))
        geo = GeometryField(forest, 1)
        return (CGLaplaceOperator(dof, geo),
                AssembledOperator(assemble_cg_laplace(dof, geo)))

    def test_vmult_matches_matrix_free(self, hanging, rng):
        mf, asm = self._pair(hanging)
        assert (mf.n_dofs, asm.dtype) == (asm.n_dofs, np.float64)
        assert asm.work_model()["flops"] == 2 * asm.matrix.nnz
        x = rng.standard_normal(mf.n_dofs)
        want = mf.vmult(x)
        assert np.abs(asm.vmult(x) - want).max() <= 1e-13 * np.abs(want).max()

    def test_stack_is_bitwise_flat(self, hanging, rng):
        _, asm = self._pair(hanging)
        for op in (asm, operator_to_dtype(asm, np.float32)):
            X = rng.standard_normal((2, asm.n_dofs)).astype(op.dtype)
            Y = op.vmult(X)
            assert Y.dtype == op.dtype
            assert np.array_equal(Y, np.stack([op.vmult(X[0]), op.vmult(X[1])]))

    def test_diagonal_is_exact(self, hanging):
        """``diag(C^T A C)`` probed column by column; the matrix-free
        squared-constraint-weight diagonal agrees only without hanging
        nodes."""
        mf, asm = self._pair(hanging)
        exact = np.diag(mf.vmult(np.eye(mf.n_dofs)))
        np.testing.assert_allclose(asm.diagonal(), exact, rtol=1e-13)
        off = np.abs(mf.diagonal() / exact - 1).max()
        assert off > 0.05 if hanging else off < 1e-13

    def test_multigrid_levels(self, hanging):
        """Degree-1 levels assembled, higher degrees matrix-free, the
        coarsest level — the AMG's — carries no smoother, and the AMG is
        built on that level's float64 matrix."""
        _, _, op = make_dg_poisson(_refined_box(hanging), 2)
        mg = HybridMultigridPreconditioner(op)
        kinds = [type(lev.operator).__name__ for lev in mg.levels]
        assert kinds[:2] == ["DGLaplaceOperator", "CGLaplaceOperator"]
        assert set(kinds[2:]) == {"AssembledOperator"}
        assert all(lev.operator.dtype == np.float32 for lev in mg.levels)
        assert [lev.smoother is None for lev in mg.levels] == [False] * (len(kinds) - 1) + [True]
        coarsest = mg.levels[-1].operator.matrix
        assert coarsest.dtype == np.float64
        assert np.shares_memory(mg.amg.levels[0].A.data, coarsest.data)


def make_dg_poisson(forest, degree, dirichlet_mesh_ids=(1,)):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet_mesh_ids)
    return dof, geo, op


class TestHybridMultigrid:
    def test_level_structure(self):
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
        forest = Forest(mesh).refine_all(2)
        _, _, op = make_dg_poisson(forest, 3)
        mg = HybridMultigridPreconditioner(op)
        desc = mg.describe()
        assert "DG(k=3)" in desc
        assert "CG(k=3)" in desc
        assert "CG(k=1" in desc
        assert "AMG" in desc
        # DG, CG3, CG1 (p), then 2 h-levels, + AMG
        assert mg.n_levels >= 5

    def test_preconditioned_cg_few_iterations(self, rng):
        """The tol=1e-10 solve should take O(10) iterations on a box —
        the bifurcation case of Figure 9 reports 9."""
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1, 1: 2})
        forest = Forest(mesh).refine_all(2)
        dof, _, op = make_dg_poisson(forest, 3, (1, 2))
        mg = HybridMultigridPreconditioner(op)
        b = rng.standard_normal(dof.n_dofs)
        res = conjugate_gradient(op, b, mg, tol=1e-10, max_iter=40)
        assert res.converged
        assert res.n_iterations <= 16

    def test_iteration_count_mesh_independent(self):
        """Optimal O(n) complexity: iterations do not grow with refinement
        (the property behind the weak scaling of Figure 9)."""
        its = []
        for levels in (1, 2):
            mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1, 1: 2})
            forest = Forest(mesh).refine_all(levels)
            dof, _, op = make_dg_poisson(forest, 2, (1, 2))
            mg = HybridMultigridPreconditioner(op)
            b = np.ones(dof.n_dofs)
            res = conjugate_gradient(op, b, mg, tol=1e-10, max_iter=60)
            assert res.converged
            its.append(res.n_iterations)
        assert its[1] <= its[0] + 3

    def test_single_vs_double_precision_same_iterations(self):
        """Running the V-cycle in single precision must not change the CG
        iteration count appreciably (Section 3.4, citing [44])."""
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
        forest = Forest(mesh).refine_all(1)
        dof, _, op = make_dg_poisson(forest, 3)
        b = np.ones(dof.n_dofs)
        mg_sp = HybridMultigridPreconditioner(op, precision=np.float32)
        mg_dp = HybridMultigridPreconditioner(op, precision=np.float64)
        res_sp = conjugate_gradient(op, b, mg_sp, tol=1e-10, max_iter=60)
        res_dp = conjugate_gradient(op, b, mg_dp, tol=1e-10, max_iter=60)
        assert res_sp.converged and res_dp.converged
        assert abs(res_sp.n_iterations - res_dp.n_iterations) <= 2

    def test_hanging_node_mesh_converges(self):
        """Multigrid with global coarsening on a locally refined forest."""
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
        f = Forest(mesh).refine_all(1)
        f = f.refine([leaf for leaf in f.leaves if leaf.tree == 0]).balance()
        dof, _, op = make_dg_poisson(f, 2)
        mg = HybridMultigridPreconditioner(op)
        b = np.ones(dof.n_dofs)
        res = conjugate_gradient(op, b, mg, tol=1e-10, max_iter=60)
        assert res.converged
        assert res.n_iterations <= 25

    def test_bifurcation_geometry(self):
        """The Figure-9 setting: Dirichlet at in/outlets, Neumann on the
        circumferential walls, bifurcation geometry."""
        mesh = bifurcation()
        forest = Forest(mesh).refine_all(1)
        dof, _, op = make_dg_poisson(forest, 2, (1, 2, 3))
        mg = HybridMultigridPreconditioner(op)
        b = np.ones(dof.n_dofs)
        res = conjugate_gradient(op, b, mg, tol=1e-10, max_iter=60)
        assert res.converged
        assert res.n_iterations <= 25

    def test_all_dirichlet_cube(self):
        """All-Dirichlet boundaries fully constrain the coarsest corners;
        the hierarchy must stop before an empty level (regression)."""
        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh).refine_all(2)
        dof, _, op = make_dg_poisson(forest, 3)
        mg = HybridMultigridPreconditioner(op)
        assert all(lev.n_dofs > 0 for lev in mg.levels)
        res = conjugate_gradient(op, np.ones(dof.n_dofs), mg, tol=1e-10, max_iter=40)
        assert res.converged and res.n_iterations <= 15

    def test_amg_called_once_per_vcycle(self):
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
        forest = Forest(mesh).refine_all(1)
        dof, _, op = make_dg_poisson(forest, 2)
        mg = HybridMultigridPreconditioner(op)
        mg.vmult(np.ones(dof.n_dofs))
        assert mg.amg_calls == 1
