"""End-to-end tests of the incompressible Navier-Stokes solver:
analytic-solution accuracy, temporal convergence, divergence control,
and pressure-driven duct flow."""

import numpy as np
import pytest

from repro.mesh.generators import box
from repro.mesh.octree import Forest
from repro.ns import (
    BeltramiFlow,
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    PressureDirichlet,
    SolverSettings,
    StokesDecayFlow,
    VelocityDirichlet,
    poiseuille_square_duct_flow_rate,
)

from ..conftest import interpolate_per_leaf


def beltrami_solver(levels=1, degree=2, nu=0.05, tol=1e-8):
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(levels)
    flow = BeltramiFlow(nu)
    bcs = BoundaryConditions(
        {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
    )
    settings = SolverSettings(solver_tolerance=tol, use_multigrid=True)
    solver = IncompressibleNavierStokesSolver(forest, degree, nu, bcs, settings)
    return solver, flow


class TestBeltrami:
    def test_short_run_accuracy(self):
        solver, flow = beltrami_solver(levels=1, degree=3, nu=0.05)
        solver.initialize(flow.velocity)
        T = 0.05
        n_steps = 10
        for _ in range(n_steps):
            solver.step(T / n_steps)
        err = solver.velocity_error_l2(flow.velocity, solver.scheme.t)
        # reference velocity magnitude is O(1); demand < 1% relative error
        assert err < 1e-2

    def test_temporal_convergence_order2(self):
        """Halving dt reduces the temporal error by ~4x (J = 2)."""
        errors = []
        for n_steps in (8, 16):
            solver, flow = beltrami_solver(levels=1, degree=4, nu=0.1)
            solver.initialize(flow.velocity)
            T = 0.2
            for _ in range(n_steps):
                solver.step(T / n_steps)
            errors.append(solver.velocity_error_l2(flow.velocity, solver.scheme.t))
        rate = np.log2(errors[0] / errors[1])
        assert rate > 1.5, f"temporal rate {rate} below 2nd order"

    def test_spatial_accuracy_improves_with_degree(self):
        errs = []
        for degree in (2, 3):
            solver, flow = beltrami_solver(levels=1, degree=degree, nu=0.05)
            solver.initialize(flow.velocity)
            for _ in range(8):
                solver.step(0.04 / 8)
            errs.append(solver.velocity_error_l2(flow.velocity, solver.scheme.t))
        assert errs[1] < 0.5 * errs[0]

    def test_divergence_stays_small(self):
        solver, flow = beltrami_solver(levels=1, degree=3, nu=0.05)
        solver.initialize(flow.velocity)
        for _ in range(5):
            solver.step(0.005)
        assert solver.max_divergence() < 0.1  # Beltrami velocity scale ~1

    def test_pressure_iterations_moderate(self):
        """With the hybrid multigrid the pressure solve stays at O(10)
        iterations per step (cf. Fig. 9/10 iteration counts)."""
        solver, flow = beltrami_solver(levels=1, degree=3, nu=0.05, tol=1e-6)
        solver.initialize(flow.velocity)
        for _ in range(3):
            st = solver.step(0.005)
        assert st.pressure_iterations <= 20


class TestInterpolateVelocity:
    """One call of ``fn`` on all nodes == the per-leaf loop it replaced."""

    def check(self, solver, flow, t):
        calls = []

        def fn(x, y, z, t):
            calls.append(x.shape)
            return flow.velocity(x, y, z, t)

        got = solver.interpolate_velocity(fn, t)
        want = interpolate_per_leaf(solver.dof_u, solver.forest,
                                    lambda x, y, z: flow.velocity(x, y, z, t))
        assert calls == [(solver.dof_u.n_dofs // 3,)]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_beltrami_on_refined_box(self):
        solver, flow = beltrami_solver(levels=1, degree=3)
        self.check(solver, flow, 0.1)

    def test_womersley_on_curved_cylinder(self):
        from repro.mesh.generators import cylinder
        from repro.ns.analytic import WomersleyPipeFlow

        flow = WomersleyPipeFlow(radius=0.5, nu=0.05, omega=2.0 * np.pi)
        forest = Forest(cylinder(radius=0.5, length=1.0, n_axial=2)).refine_all(1)
        g = lambda x, y, z, t: flow.velocity(x, y, z, t)  # noqa: E731
        bcs = BoundaryConditions({bid: VelocityDirichlet(g) for bid in (0, 1, 2)})
        solver = IncompressibleNavierStokesSolver(
            forest, 2, flow.nu, bcs, SolverSettings(use_multigrid=False))
        self.check(solver, flow, 0.3)


class TestInitialGuessExtrapolation:
    def test_pressure_iterations_drop_after_startup(self):
        """Section 5.3: coarse (1e-3) tolerances 'are enabled by
        extrapolations to start with accurate initial guesses from
        previous time steps'.  After the first steps the extrapolated
        guess must cut the pressure iteration count."""
        solver, flow = beltrami_solver(levels=1, degree=3, nu=0.05, tol=1e-6)
        solver.initialize(flow.velocity)
        its = []
        for _ in range(6):
            st = solver.step(0.004)
            its.append(st.pressure_iterations)
        assert min(its[2:]) < its[0]
        assert np.mean(its[3:]) <= np.mean(its[:2])


class TestStokesDecay:
    def test_exact_shear_decay(self):
        """u = sin(pi y) e_x decays with exp(-nu pi^2 t); convection and
        pressure vanish identically, isolating the viscous step."""
        nu = 0.1
        mesh = box(subdivisions=(1, 2, 1), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh)
        flow = StokesDecayFlow(nu)
        bcs = BoundaryConditions(
            {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
        )
        solver = IncompressibleNavierStokesSolver(
            forest, 4, nu, bcs, SolverSettings(solver_tolerance=1e-10)
        )
        solver.initialize(flow.velocity)
        T = 0.2
        n = 20
        for _ in range(n):
            solver.step(T / n)
        err = solver.velocity_error_l2(flow.velocity, solver.scheme.t)
        assert err < 5e-4


class TestCFLAdaptivity:
    def test_adaptive_steps_track_velocity(self):
        solver, flow = beltrami_solver(levels=1, degree=2, nu=0.3)
        solver.initialize(flow.velocity)
        stats = solver.run(t_end=0.15, max_steps=200)
        dts = [s.dt for s in stats]
        assert len(dts) >= 3
        # velocity decays (nu d^2 ~ 0.74/s) -> the CFL step grows
        # (the final step is clipped to land exactly on t_end, skip it)
        assert dts[-2] > dts[0]


class TestPressureDrivenDuct:
    @pytest.mark.slow
    def test_flow_rate_matches_series_solution(self):
        """Square duct with pressure drop: steady flow rate must match
        the exact series solution within a few percent — validating the
        pressure-BC code path used by the ventilated lung."""
        a = 0.5  # half width
        L = 2.0
        nu = 1.0  # strongly viscous -> fast settling, laminar
        dp = 1.0
        mesh = box(
            lower=(-a, -a, 0.0),
            upper=(a, a, L),
            subdivisions=(2, 2, 3),
            boundary_ids={4: 1, 5: 2},
        )
        forest = Forest(mesh).refine_all(1)
        bcs = BoundaryConditions(
            {1: PressureDirichlet(dp), 2: PressureDirichlet(0.0)}
        )
        solver = IncompressibleNavierStokesSolver(
            forest, 2, nu, bcs, SolverSettings(solver_tolerance=1e-8, cfl=0.3)
        )
        solver.initialize()
        # settle to steady state (viscous time scale a^2/nu = 0.25)
        t_end = 1.0
        while solver.scheme.t < t_end:
            solver.step(min(0.02, t_end - solver.scheme.t))
        Q = solver.flow_rate(2)  # outlet
        Q_exact = poiseuille_square_duct_flow_rate(dp / L, a, nu)
        assert Q > 0
        assert abs(Q - Q_exact) / Q_exact < 0.08
