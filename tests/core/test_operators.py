"""Tests of the matrix-free mass and Laplace operators."""

import numpy as np
import pytest

from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import (
    CGLaplaceOperator,
    DGLaplaceOperator,
    InverseMassOperator,
    MassOperator,
)
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box, bifurcation, cylinder, unit_cube
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest


def make_setup(forest, degree, dirichlet=()):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet)
    return dof, geo, conn, op


def operator_matrix(op):
    n = op.n_dofs
    A = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[:, j] = op.vmult(e)
    return A


class TestMassOperator:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_integral_of_one(self, degree):
        forest = Forest(box(upper=(2, 1, 1), subdivisions=(2, 1, 1)))
        geo = GeometryField(forest, degree)
        dof = DGDofHandler(forest, degree)
        M = MassOperator(dof, geo)
        ones = np.ones(dof.n_dofs)
        assert np.isclose(ones @ M.vmult(ones), 2.0)

    def test_symmetry(self):
        forest = Forest(unit_cube()).refine_all(1)
        geo = GeometryField(forest, 2)
        dof = DGDofHandler(forest, 2)
        M = MassOperator(dof, geo)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, dof.n_dofs))
        assert np.isclose(x @ M.vmult(y), y @ M.vmult(x), rtol=1e-12)

    def test_diagonal_matches_matrix(self):
        forest = Forest(unit_cube())
        geo = GeometryField(forest, 2)
        dof = DGDofHandler(forest, 2)
        M = MassOperator(dof, geo)
        A = operator_matrix(M)
        assert np.allclose(M.diagonal(), np.diag(A), rtol=1e-10)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_inverse_roundtrip(self, degree):
        # deformed mesh via the smooth cylinder
        forest = Forest(cylinder(n_axial=2, smooth=True))
        geo = GeometryField(forest, degree)
        dof = DGDofHandler(forest, degree)
        M = MassOperator(dof, geo)
        Minv = InverseMassOperator(dof, geo)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(dof.n_dofs)
        assert np.allclose(Minv.vmult(M.vmult(x)), x, atol=1e-9)
        assert np.allclose(M.vmult(Minv.vmult(x)), x, atol=1e-9)

    def test_vector_valued(self):
        forest = Forest(unit_cube())
        geo = GeometryField(forest, 2)
        dof = DGDofHandler(forest, 2, n_components=3)
        M = MassOperator(dof, geo)
        ones = np.ones(dof.n_dofs)
        assert np.isclose(ones @ M.vmult(ones), 3.0)  # 3 components x volume 1


class TestDGLaplaceBasics:
    def test_constant_in_kernel_with_neumann(self):
        """With pure Neumann boundaries the constant is in the kernel —
        exercises cell terms and all conforming face terms."""
        forest = Forest(box(subdivisions=(2, 2, 1)))
        dof, _, _, op = make_setup(forest, 2)
        ones = np.ones(dof.n_dofs)
        assert np.abs(op.vmult(ones)).max() < 1e-10

    def test_constant_in_kernel_on_hanging_mesh(self):
        """The same on a 2:1 locally refined mesh — validates sub-face
        interpolation and hanging-face flux assembly."""
        f = Forest(box(subdivisions=(2, 1, 1)))
        f = f.refine([f.leaves[0]]).balance()
        dof, _, conn, op = make_setup(f, 3)
        assert conn.n_hanging_faces > 0
        ones = np.ones(dof.n_dofs)
        assert np.abs(op.vmult(ones)).max() < 1e-9

    def test_constant_in_kernel_on_bifurcation(self):
        """Mixed orientations at tube junctions must also cancel."""
        mesh = bifurcation()
        forest = Forest(mesh)
        dof, _, conn, op = make_setup(forest, 2)
        assert conn.mixed_orientation_fraction() > 0
        ones = np.ones(dof.n_dofs)
        assert np.abs(op.vmult(ones)).max() < 1e-9

    @pytest.mark.parametrize("dirichlet", [(), (1, 2)])
    def test_symmetry(self, dirichlet):
        forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1, 1: 2}))
        dof, _, _, op = make_setup(forest, 2, dirichlet)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, dof.n_dofs))
        assert np.isclose(x @ op.vmult(y), y @ op.vmult(x), rtol=1e-10)

    def test_positive_definite_with_dirichlet(self):
        forest = Forest(unit_cube(2), )
        mesh = box(subdivisions=(2, 2, 2), boundary_ids={0: 1})
        forest = Forest(mesh)
        dof, _, _, op = make_setup(forest, 2, dirichlet=(1,))
        A = operator_matrix(op)
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert eigs.min() > 0

    def test_semidefinite_with_neumann(self):
        forest = Forest(unit_cube(2))
        dof, _, _, op = make_setup(forest, 2)
        A = operator_matrix(op)
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert eigs.min() > -1e-10
        # exactly one zero eigenvalue (the constant)
        assert np.sum(np.abs(eigs) < 1e-8) == 1

    def test_diagonal_matches_matrix(self):
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
        forest = Forest(mesh)
        dof, _, _, op = make_setup(forest, 2, dirichlet=(1,))
        A = operator_matrix(op)
        assert np.allclose(op.diagonal(), np.diag(A), rtol=1e-9)

    def test_diagonal_matches_matrix_hanging(self):
        f = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1}))
        f = f.refine([f.leaves[0]]).balance()
        dof, _, _, op = make_setup(f, 2, dirichlet=(1,))
        A = operator_matrix(op)
        assert np.allclose(op.diagonal(), np.diag(A), rtol=1e-9)


def solve_cg(op, b, tol=1e-11, maxiter=2000, M=None):
    x = np.zeros_like(b)
    r = b.copy()
    z = r if M is None else M(r)
    p = z.copy()
    rz = r @ z
    b_norm = np.linalg.norm(b)
    for _ in range(maxiter):
        Ap = op.vmult(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) < tol * b_norm:
            break
        z = r if M is None else M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


class TestDGPoissonConvergence:
    def solve_error(self, levels, degree):
        """Manufactured u = sin(pi x) sin(pi y) sin(pi z) on the unit cube
        with Dirichlet boundaries; returns the L2 error."""
        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh).refine_all(levels)
        geo = GeometryField(forest, degree)
        conn = build_connectivity(forest)
        dof = DGDofHandler(forest, degree)
        op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
        exact = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        rhs_f = lambda x, y, z: 3 * np.pi**2 * exact(x, y, z)
        b = op.assemble_rhs(f=rhs_f, dirichlet=lambda x, y, z: 0.0 * x)
        Minv = InverseMassOperator(dof, geo)
        u = solve_cg(op, b, M=Minv.vmult)
        # L2 error by quadrature
        cm = geo.cell_metrics()
        uq = geo.kernel.values(dof.lanes(u))
        eq = exact(*cm.points)
        return float(np.sqrt(np.sum((uq - eq) ** 2 * cm.jxw)))

    @pytest.mark.parametrize("degree,expected_rate", [(1, 2.0), (2, 3.0), (3, 4.0)])
    def test_hp_convergence_rates(self, degree, expected_rate):
        e1 = self.solve_error(1, degree)
        e2 = self.solve_error(2, degree)
        rate = np.log2(e1 / e2)
        assert rate > expected_rate - 0.4, f"rate {rate} too low for k={degree}"

    def test_convergence_on_hanging_mesh(self):
        """Locally refined mesh still converges (reduced but positive)."""
        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        degree = 2
        errors = []
        for levels in (1, 2):
            forest = Forest(mesh).refine_all(levels)
            forest = forest.refine(forest.leaves[: forest.n_cells // 2]).balance()
            geo = GeometryField(forest, degree)
            conn = build_connectivity(forest)
            dof = DGDofHandler(forest, degree)
            op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
            exact = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
            b = op.assemble_rhs(
                f=lambda x, y, z: 3 * np.pi**2 * exact(x, y, z),
                dirichlet=lambda x, y, z: 0.0 * x,
            )
            Minv = InverseMassOperator(dof, geo)
            u = solve_cg(op, b, M=Minv.vmult)
            cm = geo.cell_metrics()
            uq = geo.kernel.values(dof.lanes(u))
            eq = exact(*cm.points)
            errors.append(float(np.sqrt(np.sum((uq - eq) ** 2 * cm.jxw))))
        assert errors[1] < 0.25 * errors[0]


class TestCGLaplace:
    def test_constant_in_kernel_neumann(self):
        forest = Forest(box(subdivisions=(2, 2, 1)))
        dof = CGDofHandler(forest, 2)
        geo = GeometryField(forest, 2)
        op = CGLaplaceOperator(dof, geo)
        ones = np.ones(dof.n_dofs)
        assert np.abs(op.vmult(ones)).max() < 1e-10

    def test_constant_in_kernel_hanging(self):
        f = Forest(box(subdivisions=(2, 1, 1)))
        f = f.refine([f.leaves[0]]).balance()
        dof = CGDofHandler(f, 2)
        geo = GeometryField(f, 2)
        op = CGLaplaceOperator(dof, geo)
        # the expansion of the constant master vector must be constant
        assert np.allclose(dof.expand(np.ones(dof.n_dofs)), 1.0)
        assert np.abs(op.vmult(np.ones(dof.n_dofs))).max() < 1e-10

    def test_dof_count_conforming(self):
        forest = Forest(unit_cube()).refine_all(1)
        dof = CGDofHandler(forest, 2)
        assert dof.n_dofs == 5**3  # 2 cells/dim x degree 2 = 5 nodes/dim

    def test_spd_with_dirichlet(self):
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
        forest = Forest(mesh)
        dof = CGDofHandler(forest, 2, dirichlet_ids=(1,))
        geo = GeometryField(forest, 2)
        op = CGLaplaceOperator(dof, geo)
        A = operator_matrix(op)
        assert np.allclose(A, A.T, atol=1e-11)
        assert np.linalg.eigvalsh(A).min() > 0

    def test_poisson_convergence(self):
        mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        degree = 2
        errors = []
        exact = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        for levels in (1, 2):
            forest = Forest(mesh).refine_all(levels)
            dof = CGDofHandler(forest, degree, dirichlet_ids=(1,))
            geo = GeometryField(forest, degree)
            op = CGLaplaceOperator(dof, geo)
            # rhs: project f into the master space
            cm = geo.cell_metrics()
            fq = 3 * np.pi**2 * exact(*cm.points)
            b = dof.scatter_add_cells(geo.kernel.integrate_values(fq * cm.jxw))
            u = solve_cg(op, b)
            uq = geo.kernel.values(dof.gather_cells(u))
            eq = exact(*cm.points)
            errors.append(float(np.sqrt(np.sum((uq - eq) ** 2 * cm.jxw))))
        rate = np.log2(errors[0] / errors[1])
        assert rate > 2.6

    def test_hanging_constraints_continuity(self):
        """Expanded fields are continuous across the hanging face: evaluate
        from both sides at shared physical points."""
        f = Forest(box(subdivisions=(2, 1, 1)))
        f = f.refine([f.leaves[0]]).balance()
        dof = CGDofHandler(f, 2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(dof.n_dofs)
        cells = dof.gather_cells(x)
        geo = GeometryField(f, 2)
        # compare values at the face quadrature points of both sides of
        # every interior face row of the face loop (hanging ones included)
        from repro.core.operators import FaceLoop

        conn = dof.connectivity
        assert any(b.is_hanging for b in conn.interior)
        loop = FaceLoop.of(geo.kernel, f.n_cells, conn.interior, [], sheets=2)
        buf = cells.reshape(1, -1)  # the loop reads the lane block
        for ch in loop.chunks:
            v = loop.trace(buf, ch)
            assert np.allclose(v[:, :ch.Fi], v[:, ch.F:], atol=1e-10)
