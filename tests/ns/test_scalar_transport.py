"""Tests of the passive-scalar (gas transport) extension."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns.scalar_transport import ScalarAdvectionOperator, ScalarTransportSolver

from ..conftest import interpolate_per_leaf


def make_setup(degree=2, subdivisions=(3, 1, 1), boundary_ids=None):
    mesh = box(
        lower=(0, 0, 0), upper=(3, 1, 1), subdivisions=subdivisions,
        boundary_ids=boundary_ids or {0: 1, 1: 2},
    )
    forest = Forest(mesh)
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof_u = DGDofHandler(forest, degree, n_components=3)
    return forest, geo, conn, dof_u


class TestAdvectionOperator:
    def test_constant_concentration_conserved(self):
        """With c = const and closed upwind fluxes, the total advective
        residual against constant tests is the net boundary flux of u —
        zero for a divergence-free through-flow."""
        forest, geo, conn, dof_u = make_setup()
        dof_c = DGDofHandler(forest, 2)
        adv = ScalarAdvectionOperator(dof_c, dof_u, geo, conn,
                                      inflow_values={1: 1.0})
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 0 * y, 0 * z]))
        c = np.ones(dof_c.n_dofs)
        r = adv.apply(c, u)
        ones = np.ones(dof_c.n_dofs)
        # inflow brings c_in = 1 = interior c: residual integrates to zero
        assert abs(ones @ r) < 1e-10

    def test_zero_velocity_gives_zero(self):
        forest, geo, conn, dof_u = make_setup()
        dof_c = DGDofHandler(forest, 2)
        adv = ScalarAdvectionOperator(dof_c, dof_u, geo, conn)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(dof_c.n_dofs)
        assert np.allclose(adv.apply(c, np.zeros(dof_u.n_dofs)), 0.0)

    def test_mismatched_degrees_raise(self):
        forest, geo, conn, dof_u = make_setup(degree=2)
        dof_c = DGDofHandler(forest, 2)
        dof_u3 = DGDofHandler(forest, 3, n_components=3)
        with pytest.raises(ValueError):
            ScalarAdvectionOperator(dof_c, dof_u3, geo, conn)


class TestTransportSolver:
    def test_washin_approaches_inflow_concentration(self):
        """Fresh-gas wash-in: a channel initially at c = 0 with inflow at
        c = 1 fills up monotonically towards 1 (the O2 wash-in the
        ventilation model predicts)."""
        forest, geo, conn, dof_u = make_setup()
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 0 * y, 0 * z]))
        solver = ScalarTransportSolver(
            forest, 2, diffusivity=0.01, connectivity=conn, geometry=geo,
            dof_u=dof_u, inflow_values={1: 1.0},
        )
        solver.set_initial(0.0)
        means = [solver.mean_concentration(geo)]
        dt = 0.02  # CFL-safe for u=1, h=1, k=2
        for _ in range(150):
            solver.step(dt, u)
            means.append(solver.mean_concentration(geo))
        assert means[0] == pytest.approx(0.0)
        # monotone fill (small tolerance for DG oscillations)
        for a, b in zip(means, means[1:]):
            assert b > a - 1e-6
        assert means[-1] > 0.6  # 3 time units of transit over length 3

    def test_pure_diffusion_conserves_mass_with_neumann(self):
        forest, geo, conn, dof_u = make_setup(boundary_ids={})
        solver = ScalarTransportSolver(
            forest, 2, diffusivity=0.1, connectivity=conn, geometry=geo,
            dof_u=dof_u,
        )
        # a blob in the first cell
        solver.dof_c.lanes(solver.c)[..., 0] = 1.0
        total0 = solver.mean_concentration(geo)
        u0 = np.zeros(dof_u.n_dofs)
        for _ in range(50):
            solver.step(0.005, u0)
        assert np.isclose(solver.mean_concentration(geo), total0, rtol=1e-10)

    def test_concentration_stays_bounded(self):
        """Upwinding keeps the wash-in solution within [0 - eps, 1 + eps]
        (no blow-up; small DG overshoots allowed)."""
        forest, geo, conn, dof_u = make_setup()
        u = interpolate_per_leaf(dof_u, forest, lambda x, y, z: np.stack([1 + 0 * x, 0 * y, 0 * z]))
        solver = ScalarTransportSolver(
            forest, 2, diffusivity=0.01, connectivity=conn, geometry=geo,
            dof_u=dof_u, inflow_values={1: 1.0},
        )
        solver.set_initial(0.0)
        for _ in range(100):
            solver.step(0.02, u)
        assert solver.c.min() > -0.2
        assert solver.c.max() < 1.2
