"""Tests of the Navier-Stokes operators: gradient/divergence duality,
convective consistency, penalty behaviour, Helmholtz."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import (
    ConvectiveOperator,
    DGLaplaceOperator,
    DivergenceContinuityPenalty,
    DivergenceOperator,
    GradientOperator,
    HelmholtzOperator,
    InverseMassOperator,
    MassOperator,
    PenaltyStepOperator,
    VectorDGLaplace,
)
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns.bc import BoundaryConditions, PressureDirichlet, VelocityDirichlet

from ..conftest import dense_jinv_t, interpolate_per_leaf, lane_block


@pytest.fixture(scope="module")
def setup():
    mesh = box(subdivisions=(2, 2, 1), boundary_ids={0: 1, 1: 2})
    forest = Forest(mesh)
    k = 2
    geo = GeometryField(forest, k)
    geo_over = GeometryField(forest, k, n_q_points=k + 2)
    conn = build_connectivity(forest)
    dof_u = DGDofHandler(forest, k, n_components=3)
    dof_us = DGDofHandler(forest, k)
    dof_p = DGDofHandler(forest, k - 1)
    bcs = BoundaryConditions({1: PressureDirichlet(0.0), 2: PressureDirichlet(0.0)})
    return forest, geo, geo_over, conn, dof_u, dof_us, dof_p, bcs


class TestGradDivDuality:
    def test_negative_transpose(self, setup, rng):
        forest, geo, _, conn, dof_u, _, dof_p, bcs = setup
        D = DivergenceOperator(dof_u, dof_p, geo, conn, bcs)
        G = GradientOperator(dof_u, dof_p, geo, conn, bcs)
        u = rng.standard_normal(dof_u.n_dofs)
        p = rng.standard_normal(dof_p.n_dofs)
        # with homogeneous data: (D u, p) == -(u, G p)
        lhs = p @ D.vmult(u)
        rhs = -u @ G.vmult(p)
        assert np.isclose(lhs, rhs, rtol=1e-11)

    def test_divergence_of_constant_field_is_zero(self, setup):
        forest, geo, _, conn, dof_u, _, dof_p, _ = setup
        # constant velocity, all boundaries OUTFLOW (u* = u_m): telescoping
        bcs = BoundaryConditions({0: PressureDirichlet(0.0), 1: PressureDirichlet(0.0), 2: PressureDirichlet(0.0)})
        D = DivergenceOperator(dof_u, dof_p, geo, conn, bcs)
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 2 + 0 * y, -1 + 0 * z]))
        div = D.apply(u)
        assert np.abs(div).max() < 1e-10

    def test_divergence_of_linear_field(self, setup):
        """div(x, y, z) = 3: (D u, q) must equal 3 * integral(q)."""
        forest, geo, _, conn, dof_u, _, dof_p, bcs_unused = setup
        bcs = BoundaryConditions({0: PressureDirichlet(0.0), 1: PressureDirichlet(0.0), 2: PressureDirichlet(0.0)})
        D = DivergenceOperator(dof_u, dof_p, geo, conn, bcs)
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([x, y, z]))
        div = D.apply(u)
        # test against q = 1: total = 3 * volume = 3 * 1
        ones = np.ones(dof_p.n_dofs)
        assert np.isclose(ones @ div, 3.0, rtol=1e-10)

    def test_gradient_of_linear_pressure(self, setup):
        """(G p, v) with p = x against v = e_x equals volume integral of
        dp/dx = 1 (with consistent pressure-Dirichlet data on 1, 2)."""
        forest, geo, _, conn, dof_u, _, dof_p, _ = setup
        pd = PressureDirichlet(lambda x, y, z, t: x)
        bcs = BoundaryConditions({0: pd, 1: pd, 2: pd, 3: pd})
        # make ALL boundaries pressure-Dirichlet with g = x
        mesh_ids = {b.boundary_id for b in conn.boundary}
        bcs = BoundaryConditions({bid: pd for bid in mesh_ids})
        G = GradientOperator(dof_u, dof_p, geo, conn, bcs)
        # interpolate p = x in the pressure space
        from repro.core.basis import LagrangeBasis1D

        n = dof_p.n1
        nodes = LagrangeBasis1D(dof_p.degree).nodes
        zz, yy, xx = np.meshgrid(nodes, nodes, nodes, indexing="ij")
        ref = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        parr = np.empty((forest.n_cells, n, n, n))
        for c, leaf in enumerate(forest.leaves):
            pts = forest.coarse.map_geometry(leaf.tree, leaf.ref_points(ref))
            parr[c] = pts[:, 0].reshape(n, n, n)
        gp = G.apply(lane_block(parr).reshape(-1))
        vx = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 0 * y, 0 * z]))
        assert np.isclose(vx @ gp, 1.0, rtol=1e-10)


class TestConvective:
    def test_zero_velocity_gives_zero(self, setup):
        forest, _, geo_over, conn, dof_u, _, _, bcs = setup
        C = ConvectiveOperator(dof_u, geo_over, conn, bcs)
        assert np.allclose(C.apply(np.zeros(dof_u.n_dofs)), 0.0)

    def test_constant_velocity_with_outflow(self, setup):
        """For constant u and outflow everywhere, div(u(x)u) integrates to
        boundary flux only; testing against constant v: sum = net flux of
        u (u.n) over the boundary = 0 for the closed box."""
        forest, _, geo_over, conn, dof_u, _, _, _ = setup
        mesh_ids = {b.boundary_id for b in conn.boundary}
        bcs = BoundaryConditions({bid: PressureDirichlet(0.0) for bid in mesh_ids})
        C = ConvectiveOperator(dof_u, geo_over, conn, bcs)
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 0.5 + 0 * y, 0 * z]))
        r = C.apply(u)
        ones = np.ones(dof_u.n_dofs)
        assert np.isclose(ones @ r, 0.0, atol=1e-10)

    def test_energy_stability_with_noslip(self, setup, rng):
        """u . C(u) >= 0 (up to round-off) for no-slip data — the
        Lax-Friedrichs dissipation makes convection energy-stable."""
        forest, _, geo_over, conn, dof_u, _, _, _ = setup
        mesh_ids = {b.boundary_id for b in conn.boundary}
        bcs = BoundaryConditions({bid: VelocityDirichlet.no_slip() for bid in mesh_ids})
        C = ConvectiveOperator(dof_u, geo_over, conn, bcs)
        # a smooth divergence-free-ish field
        u = interpolate_per_leaf(
            dof_u, forest,
            lambda x, y, z: np.stack([np.sin(np.pi * y), np.sin(np.pi * z), np.sin(np.pi * x)]),
        )
        assert u @ C.apply(u) > -1e-10

    def test_requires_overintegration(self, setup):
        forest, geo, _, conn, dof_u, _, _, bcs = setup
        with pytest.raises(ValueError, match="over-integration"):
            ConvectiveOperator(dof_u, geo, conn, bcs)

    def test_max_reference_velocity(self, setup):
        forest, _, geo_over, conn, dof_u, _, _, bcs = setup
        C = ConvectiveOperator(dof_u, geo_over, conn, bcs)
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([2 + 0 * x, 0 * y, 0 * z]))
        # cells are 0.5 x 0.5 x 1: |J^{-1} u| = 2 / 0.5 = 4
        assert np.isclose(C.max_reference_velocity(u), 4.0, rtol=1e-10)


class TestPenalty:
    def test_divergence_free_field_in_kernel(self, setup):
        forest, geo, _, conn, dof_u, _, _, _ = setup
        P = DivergenceContinuityPenalty(dof_u, geo, conn)
        # rigid rotation: div = 0 and continuous -> penalty-free
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([-y, x, 0 * z]))
        P.tau_div = np.ones(forest.n_cells)
        P.tau_cont = np.ones(conn.n_interior_faces)
        assert np.abs(P.vmult(u)).max() < 1e-10

    def test_spsd(self, setup, rng):
        forest, geo, _, conn, dof_u, _, _, _ = setup
        P = DivergenceContinuityPenalty(dof_u, geo, conn)
        P.tau_div = np.ones(forest.n_cells)
        P.tau_cont = np.ones(conn.n_interior_faces)
        x, y = rng.standard_normal((2, dof_u.n_dofs))
        assert np.isclose(x @ P.vmult(y), y @ P.vmult(x), rtol=1e-10)
        assert x @ P.vmult(x) >= -1e-10

    def test_update_parameters_scales_with_velocity(self, setup):
        forest, geo, _, conn, dof_u, _, _, _ = setup
        P = DivergenceContinuityPenalty(dof_u, geo, conn)
        u1 = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 0 * y, 0 * z]))
        P.update_parameters(u1)
        tau1 = P.tau_div.copy()
        P.update_parameters(3.0 * u1)
        assert np.allclose(P.tau_div, 3 * tau1, rtol=1e-10)

    def test_penalty_step_reduces_divergence_error(self, setup):
        forest, geo, _, conn, dof_u, _, _, _ = setup
        from repro.solvers.krylov import conjugate_gradient

        mass = MassOperator(dof_u, geo)
        inv_mass = InverseMassOperator(dof_u, geo)
        P = DivergenceContinuityPenalty(dof_u, geo, conn)
        step = PenaltyStepOperator(mass, P)
        # velocity with divergence: u = (x^2, 0, 0)
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([x * x, 0 * y, 0 * z]))
        P.update_parameters(u)
        step.set_dt(1.0)
        res = conjugate_gradient(step, mass.vmult(u), inv_mass, tol=1e-10, max_iter=300)
        assert res.converged
        kern = geo.kernel
        cm = geo.cell_metrics()

        def div_l2(vec):
            g = kern.gradients_cm(dof_u.lanes(vec))  # g[l, i]
            div = np.einsum("ilzyxc,lizyxc->zyxc", dense_jinv_t(cm.jinv_t), g, optimize=True)
            return np.sqrt((div**2 * cm.jxw).sum())

        assert div_l2(res.x) < div_l2(u)


class TestHelmholtz:
    def test_vector_laplace_componentwise(self, setup, rng):
        forest, geo, _, conn, dof_u, dof_us, _, _ = setup
        scal = DGLaplaceOperator(dof_us, geo, conn, dirichlet_ids=(1,))
        vec = VectorDGLaplace(scal, dof_u)
        x = rng.standard_normal(dof_u.n_dofs)
        y = vec.vmult(x)
        xv = dof_u.lanes(x)
        yv = dof_u.lanes(y)
        for c in range(3):
            yc = scal.vmult(xv[c].reshape(-1))
            assert np.allclose(yv[c], dof_us.lanes(yc))

    def test_helmholtz_spd_and_solvable(self, setup, rng):
        forest, geo, _, conn, dof_u, dof_us, _, _ = setup
        from repro.solvers.krylov import conjugate_gradient

        scal = DGLaplaceOperator(dof_us, geo, conn, dirichlet_ids=(1,))
        vec = VectorDGLaplace(scal, dof_u)
        mass = MassOperator(dof_u, geo)
        inv_mass = InverseMassOperator(dof_u, geo)
        H = HelmholtzOperator(mass, vec, nu=0.01)
        H.set_time_factor(100.0)
        b = rng.standard_normal(dof_u.n_dofs)
        res = conjugate_gradient(H, b, inv_mass, tol=1e-9, max_iter=300)
        assert res.converged
        # inverse mass preconditioning should converge fast in the
        # mass-dominated regime (the paper's sub-step preconditioner)
        assert res.n_iterations < 60


def _flow_setup(forest, conn):
    """k=2 spaces and geometries of ``forest`` (k+2 points for the
    convective term)."""
    return (GeometryField(forest, 2), GeometryField(forest, 2, n_q_points=4),
            DGDofHandler(forest, 2, n_components=3), DGDofHandler(forest, 1))


@pytest.fixture(params=["curved_hanging", "rotated_hanging_box"])
def plan_mesh(request):
    """``(forest, connectivity)`` of the meshes where face plans can go
    wrong: curved with reoriented and 2:1 hanging faces, and a sheared
    box with swapped/flipped orientations and hanging faces."""
    value = request.getfixturevalue(request.param)
    if request.param == "curved_hanging":
        return value[0].forest, value[1]
    return value


class TestOnPlanMeshes:
    """The duality, stability and definiteness properties of the flow
    operators on hanging, reoriented and curved faces."""

    def test_negative_transpose(self, plan_mesh, rng):
        forest, conn = plan_mesh
        geo, _, dof_u, dof_p = _flow_setup(forest, conn)
        ids = sorted({b.boundary_id for b in conn.boundary})
        bcs = BoundaryConditions({ids[0]: PressureDirichlet(0.0)})
        D = DivergenceOperator(dof_u, dof_p, geo, conn, bcs)
        G = GradientOperator(dof_u, dof_p, geo, conn, bcs)
        u = rng.standard_normal(dof_u.n_dofs)
        p = rng.standard_normal(dof_p.n_dofs)
        assert np.isclose(p @ D.vmult(u), -u @ G.vmult(p), rtol=1e-11)

    def test_convective_energy_stability_with_noslip(self, plan_mesh, rng):
        forest, conn = plan_mesh
        _, geo_over, dof_u, _ = _flow_setup(forest, conn)
        C = ConvectiveOperator(dof_u, geo_over, conn, BoundaryConditions())
        u = interpolate_per_leaf(
            dof_u, forest,
            lambda x, y, z: np.stack([np.sin(np.pi * y), np.sin(np.pi * z), np.sin(np.pi * x)]),
        )
        assert u @ C.apply(u) > -1e-10

    def test_penalty_spsd(self, plan_mesh, rng):
        """The continuity (face) penalty with tau from
        ``update_parameters``; the divergence (cell) penalty is zeroed —
        it is not symmetric on non-Cartesian cells (ROADMAP 1(A))."""
        forest, conn = plan_mesh
        geo, _, dof_u, _ = _flow_setup(forest, conn)
        P = DivergenceContinuityPenalty(dof_u, geo, conn)
        P.update_parameters(rng.standard_normal(dof_u.n_dofs))
        assert P.tau_cont.min() > 0.0
        P.tau_div = np.zeros_like(P.tau_div)
        x, y = rng.standard_normal((2, dof_u.n_dofs))
        assert np.isclose(x @ P.vmult(y), y @ P.vmult(x), rtol=1e-10)
        assert x @ P.vmult(x) >= -1e-10
