"""Tests of the smoothed-aggregation AMG coarse solver."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.dof_handler import CGDofHandler
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers.amg import (
    SmoothedAggregationAMG,
    aggregate,
    gauss_seidel_splitting,
    strength_graph,
    symmetric_gauss_seidel,
    tentative_prolongator,
)
from repro.solvers.assemble import assemble_cg_laplace


def poisson_1d(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")


def poisson_3d_matrix(cells=4, degree=1, dirichlet=True):
    bids = {i: 1 for i in range(6)} if dirichlet else {}
    mesh = box(subdivisions=(cells,) * 3, boundary_ids=bids)
    forest = Forest(mesh)
    dof = CGDofHandler(forest, degree, dirichlet_ids=(1,) if dirichlet else ())
    geo = GeometryField(forest, degree)
    return assemble_cg_laplace(dof, geo)


class TestComponents:
    def test_strength_graph_drops_weak(self):
        A = sp.csr_matrix(np.array([[2.0, -1.0, -1e-6], [-1.0, 2.0, 0], [-1e-6, 0, 2.0]]))
        S = strength_graph(A, theta=0.1)
        assert S[0, 1] != 0
        assert S[0, 2] == 0
        assert S[0, 0] == 0  # diagonal excluded

    def test_aggregate_covers_all(self):
        A = poisson_1d(50)
        S = strength_graph(A)
        agg = aggregate(S)
        assert agg.min() >= 0
        assert agg.max() + 1 < 50  # actual coarsening happened

    def test_tentative_prolongator_orthonormal_columns(self):
        agg = np.array([0, 0, 1, 1, 1, 2])
        P = tentative_prolongator(agg)
        G = (P.T @ P).todense()
        assert np.allclose(G, np.eye(3))

    def test_sgs_reduces_residual(self):
        A = poisson_1d(30)
        b = np.ones(30)
        x = np.zeros(30)
        x = symmetric_gauss_seidel(gauss_seidel_splitting(A), b, x)
        assert np.linalg.norm(b - A @ x) < np.linalg.norm(b)

    def test_precomputed_sgs_is_bitwise_the_per_call_formula(self):
        """The splitting built once gives the sweep that splits the
        matrix on every call, bit for bit (one and two right-hand
        sides)."""
        A = poisson_3d_matrix(cells=3)
        rng = np.random.default_rng(3)
        split = gauss_seidel_splitting(A)
        for shape in ((A.shape[0],), (A.shape[0], 2)):
            b, x = rng.standard_normal((2,) + shape)
            L = sp.tril(A, format="csr")
            U = sp.triu(A, format="csr")
            want = spla.spsolve_triangular(L, b - (A - L) @ x, lower=True)
            want = spla.spsolve_triangular(U.tocsr(), b - (A - U) @ want, lower=False)
            assert np.array_equal(symmetric_gauss_seidel(split, b, x), want)


class TestAMGSolve:
    def test_solves_1d_poisson(self):
        A = poisson_1d(400)
        amg = SmoothedAggregationAMG(A, max_coarse=20)
        assert amg.n_levels >= 2
        b = np.ones(400)
        x, hist = amg.solve(b, tol=1e-10)
        assert hist[-1] <= 1e-10 * hist[0]
        assert np.allclose(A @ x, b, atol=1e-8)

    def test_solves_assembled_3d_laplacian(self):
        A = poisson_3d_matrix(cells=4)
        amg = SmoothedAggregationAMG(A, max_coarse=30)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.shape[0])
        x, hist = amg.solve(b, tol=1e-10, max_cycles=60)
        assert hist[-1] <= 1e-10 * hist[0]

    def test_convergence_rate_mesh_independent(self):
        """V-cycle reduction factors stay bounded as the mesh refines —
        the O(n) optimality behind the weak scaling of Figure 9."""
        rates = []
        for cells in (3, 6):
            A = poisson_3d_matrix(cells=cells)
            amg = SmoothedAggregationAMG(A, max_coarse=30)
            b = np.ones(A.shape[0])
            _, hist = amg.solve(b, tol=1e-8, max_cycles=50)
            n = len(hist) - 1
            rates.append((hist[-1] / hist[0]) ** (1.0 / n))
        assert rates[1] < 0.6
        assert rates[1] < rates[0] + 0.25

    def test_two_cycle_vmult_is_fixed_preconditioner(self):
        A = poisson_1d(200)
        amg = SmoothedAggregationAMG(A, n_cycles=2, max_coarse=20)
        b = np.ones(200)
        y = amg.vmult(b)
        # two V-cycles should reduce the error substantially
        assert np.linalg.norm(b - A @ y) < 0.2 * np.linalg.norm(b)

    def test_small_matrix_direct(self):
        A = poisson_1d(10)
        amg = SmoothedAggregationAMG(A, max_coarse=50)
        assert amg.n_levels == 1
        x = amg.vmult(np.ones(10))
        assert np.allclose(A @ x, np.ones(10), atol=1e-10)

    def test_coarse_solve_is_the_dense_solve(self):
        """The triangular solves on the Cholesky factor solve the
        coarsest matrix, for one and for several right-hand sides."""
        A = poisson_3d_matrix(cells=3)
        amg = SmoothedAggregationAMG(A, max_coarse=A.shape[0])
        Ac = amg._coarse_dense
        rng = np.random.default_rng(4)
        for b in (rng.standard_normal(Ac.shape[0]), rng.standard_normal((Ac.shape[0], 3))):
            want = np.linalg.solve(Ac, b)
            got = amg._coarse_solve(b)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_nonfinite_coarse_rhs_does_not_raise(self):
        amg = SmoothedAggregationAMG(poisson_1d(10), max_coarse=50)
        assert np.isnan(amg.vmult(np.full(10, np.nan))).all()

    def test_singular_neumann_matrix_regularized(self):
        # pure Neumann Laplacian: singular; AMG must still not blow up
        A = poisson_3d_matrix(cells=2, dirichlet=False)
        amg = SmoothedAggregationAMG(A, max_coarse=10)
        b = np.ones(A.shape[0])
        b -= b.mean()  # compatible rhs
        y = amg.vmult(b)
        assert np.all(np.isfinite(y))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            SmoothedAggregationAMG(sp.csr_matrix(np.ones((3, 4))))
