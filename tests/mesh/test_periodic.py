"""Tests of translational periodic boundary matching."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest


def periodic_box(subdivisions=(2, 2, 2), refinements=0, dims=(0,)):
    mesh = box(
        subdivisions=subdivisions,
        boundary_ids={0: 10, 1: 11, 2: 20, 3: 21, 4: 30, 5: 31},
    )
    forest = Forest(mesh).refine_all(refinements)
    pairs = []
    translations = {0: (1.0, 0, 0), 1: (0, 1.0, 0), 2: (0, 0, 1.0)}
    ids = {0: (10, 11), 1: (20, 21), 2: (30, 31)}
    for d in dims:
        pairs.append((ids[d][0], ids[d][1], translations[d]))
    conn = build_connectivity(forest, periodic=pairs)
    return forest, conn


class TestPeriodicMatching:
    def test_x_periodic_face_counts(self):
        forest, conn = periodic_box((2, 2, 2), dims=(0,))
        # 4 extra interior faces, 8 fewer boundary faces
        assert conn.n_interior_faces == 12 + 4
        assert conn.n_boundary_faces == 24 - 8

    def test_fully_periodic_torus(self):
        forest, conn = periodic_box((2, 2, 2), dims=(0, 1, 2))
        assert conn.n_boundary_faces == 0
        assert conn.n_interior_faces == 24  # every face interior exactly once
        assert 2 * conn.n_interior_faces == 6 * forest.n_cells

    def test_refined_periodic(self):
        forest, conn = periodic_box((1, 1, 1), refinements=1, dims=(0,))
        assert conn.n_boundary_faces == 16
        assert conn.n_interior_faces == 12 + 4

    def test_missing_partner_raises(self):
        mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 10, 1: 11})
        forest = Forest(mesh)
        with pytest.raises(RuntimeError, match="no partner"):
            build_connectivity(forest, periodic=[(10, 11, (0.5, 0, 0))])


class TestPeriodicOperators:
    def test_constant_in_kernel_on_torus(self):
        """Fully periodic DG Laplacian annihilates constants — every face
        is interior, so this checks the periodic orientations too."""
        forest, conn = periodic_box((2, 2, 2), dims=(0, 1, 2))
        geo = GeometryField(forest, 2)
        dof = DGDofHandler(forest, 2)
        op = DGLaplaceOperator(dof, geo, conn)
        ones = np.ones(dof.n_dofs)
        assert np.abs(op.vmult(ones)).max() < 1e-10

    def test_symmetry_on_torus(self):
        forest, conn = periodic_box((2, 1, 1), dims=(0,))
        geo = GeometryField(forest, 2)
        dof = DGDofHandler(forest, 2)
        op = DGLaplaceOperator(dof, geo, conn)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, dof.n_dofs))
        assert np.isclose(x @ op.vmult(y), y @ op.vmult(x), rtol=1e-11)

    def test_periodic_poisson_plane_wave(self):
        """-lap(u) = (2 pi)^2 u for u = sin(2 pi x): solve on the
        x-periodic box (Neumann in y, z keep the problem well-posed up to
        the constant) and compare."""
        from repro.core.operators import InverseMassOperator
        from repro.solvers.krylov import conjugate_gradient

        forest, conn = periodic_box((4, 1, 1), refinements=0, dims=(0,))
        degree = 3
        geo = GeometryField(forest, degree)
        dof = DGDofHandler(forest, degree)
        op = DGLaplaceOperator(dof, geo, conn)
        cm = geo.cell_metrics()
        f = (2 * np.pi) ** 2 * np.sin(2 * np.pi * cm.points[0])
        b = geo.kernel.integrate_values(f * cm.jxw).reshape(-1)
        ones = np.ones(dof.n_dofs)
        b = b - (ones @ b) / (ones @ ones) * ones
        res = conjugate_gradient(op, b, InverseMassOperator(dof, geo),
                                 tol=1e-10, max_iter=3000)
        assert res.converged
        uq = geo.kernel.values(dof.lanes(res.x))
        exact = np.sin(2 * np.pi * cm.points[0])
        # remove the mean ambiguity
        uq = uq - (uq * cm.jxw).sum() / cm.jxw.sum()
        err = np.sqrt(np.sum((uq - exact) ** 2 * cm.jxw))
        assert err < 2e-2

    def test_advection_wraps_around(self):
        """A concentration blob advected through the periodic boundary
        reappears on the other side with conserved mass."""
        from repro.core.dof_handler import DGDofHandler as DH
        from repro.ns.scalar_transport import ScalarTransportSolver

        forest, conn = periodic_box((4, 1, 1), dims=(0,))
        degree = 2
        geo = GeometryField(forest, degree)
        dof_u = DH(forest, degree, n_components=3)
        solver = ScalarTransportSolver(
            forest, degree, diffusivity=0.0, connectivity=conn, geometry=geo,
            dof_u=dof_u,
        )
        # blob in the first quarter
        cm = geo.cell_metrics()
        c0 = np.exp(-100 * (cm.points[0] - 0.125) ** 2)
        # L2 projection
        from repro.core.operators import InverseMassOperator

        minv = InverseMassOperator(solver.dof_c, geo)
        dof_c = solver.dof_c
        solver.c = minv.vmult(geo.kernel.integrate_values(c0 * cm.jxw).reshape(-1))

        def values(c):
            return geo.kernel.values(dof_c.lanes(c))

        mass0 = float((values(solver.c) * cm.jxw).sum())
        # uniform velocity in +x
        n = degree + 1
        u_flat = np.zeros(dof_u.n_dofs)
        dof_u.lanes(u_flat)[0] = 1.0
        # advect one full period (t = 1): the blob returns to its start
        dt = 0.005
        for _ in range(200):
            solver.step(dt, u_flat)
        mass1 = float((values(solver.c) * cm.jxw).sum())
        assert np.isclose(mass1, mass0, rtol=1e-10)  # conservation
        cq = values(solver.c)
        # the peak is back near x = 0.125 (diffused a bit by upwinding)
        peak_x = cm.points[0].ravel()[np.argmax(cq.ravel())]
        assert abs((peak_x - 0.125 + 0.5) % 1.0 - 0.5) < 0.15