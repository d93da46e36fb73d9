"""Physics-level validation: conservation, energy stability, diagnostics."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.mesh.generators import bifurcation, box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns import (
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    PressureDirichlet,
    SolverSettings,
    TaylorGreenVortex3D,
    VelocityDirichlet,
)
from repro.ns.postprocess import FlowDiagnostics, sample_centerline

from ..conftest import interpolate_per_leaf


class TestFlowDiagnostics:
    def make(self, degree=2):
        forest = Forest(box(subdivisions=(2, 2, 2)))
        geo = GeometryField(forest, degree)
        dof = DGDofHandler(forest, degree, n_components=3)
        return forest, geo, dof, FlowDiagnostics(dof, geo)

    def test_kinetic_energy_of_uniform_flow(self):
        forest, geo, dof, diag = self.make()
        u = interpolate_per_leaf(dof, forest, lambda x, y, z: np.stack([2 + 0 * x, 0 * y, 0 * z]))
        assert np.isclose(diag.kinetic_energy(u), 2.0)  # |u|^2/2 = 2
        assert np.isclose(diag.max_velocity(u), 2.0)
        assert np.allclose(diag.momentum(u), [2.0, 0.0, 0.0])

    def test_enstrophy_of_rigid_rotation(self):
        forest, geo, dof, diag = self.make(degree=2)
        # u = omega x r with omega = e_z: curl u = 2 e_z, enstrophy = 2
        u = interpolate_per_leaf(dof, forest, lambda x, y, z: np.stack([-y, x, 0 * z]))
        assert np.isclose(diag.enstrophy(u), 2.0, rtol=1e-10)
        assert diag.divergence_l2(u) < 1e-10

    def test_divergence_norm_of_source_flow(self):
        forest, geo, dof, diag = self.make(degree=2)
        u = interpolate_per_leaf(dof, forest, lambda x, y, z: np.stack([x, y, z]))
        # div = 3 on the unit cube: L2 norm = 3
        assert np.isclose(diag.divergence_l2(u), 3.0, rtol=1e-10)

    def test_volume(self):
        _, _, _, diag = self.make()
        assert np.isclose(diag.volume(), 1.0)

    def test_sample_centerline(self):
        forest, geo, dof, diag = self.make(degree=2)
        u = interpolate_per_leaf(dof, forest, lambda x, y, z: np.stack([x * y, z, 0 * x]))
        pts = np.array([[0.25, 0.5, 0.75], [0.9, 0.9, 0.1]])
        vals = sample_centerline(dof, geo, u, pts)
        assert np.allclose(vals[0], [0.125, 0.75, 0.0], atol=1e-10)
        assert np.allclose(vals[1], [0.81, 0.1, 0.0], atol=1e-10)

    def test_sample_outside_returns_nan(self):
        forest, geo, dof, _ = self.make()
        u = np.zeros(dof.n_dofs)
        vals = sample_centerline(dof, geo, u, np.array([[5.0, 5.0, 5.0]]))
        assert np.all(np.isnan(vals))


class TestEnergyStability:
    def test_confined_tgv_energy_decays(self):
        """Taylor-Green-like initial condition in a no-slip box: the
        kinetic energy must decay monotonically (the DG discretization
        with Lax-Friedrichs convection + penalty stabilization is
        energy-stable — the 'robustness for under-resolved flows' claim
        behind the paper's discretization [20, 25])."""
        mesh = box(lower=(0, 0, 0), upper=(np.pi, np.pi, np.pi),
                   subdivisions=(2, 2, 2), boundary_ids={i: 1 for i in range(6)})
        forest = Forest(mesh)
        tgv = TaylorGreenVortex3D(V0=1.0, L=1.0)
        bcs = BoundaryConditions({1: VelocityDirichlet.no_slip()})
        solver = IncompressibleNavierStokesSolver(
            forest, 2, viscosity=5e-3,  # Re ~ 600: under-resolved here
            bcs=bcs, settings=SolverSettings(solver_tolerance=1e-6, cfl=0.3),
        )
        solver.initialize(lambda x, y, z, t: tgv.velocity(x, y, z))
        diag = FlowDiagnostics(solver.dof_u, solver.geo_u)
        energies = [diag.kinetic_energy(solver.velocity)]
        for _ in range(10):
            solver.step()
            energies.append(diag.kinetic_energy(solver.velocity))
        # finite and decaying (allow 1% numerical wiggle per step)
        assert np.all(np.isfinite(energies))
        for e0, e1 in zip(energies, energies[1:]):
            assert e1 < 1.01 * e0
        assert energies[-1] < energies[0]


class TestPeriodicTaylorGreen:
    def test_tgv_on_torus(self):
        """The classical fully periodic Taylor-Green vortex: energy decays
        and enstrophy grows towards the transition peak — the benchmark
        the ExaDG discretization lineage was validated on."""
        two_pi = 2 * np.pi
        mesh = box(
            lower=(0, 0, 0), upper=(two_pi, two_pi, two_pi),
            subdivisions=(2, 2, 2),
            boundary_ids={0: 10, 1: 11, 2: 20, 3: 21, 4: 30, 5: 31},
        )
        periodic = [(10, 11, (two_pi, 0, 0)), (20, 21, (0, two_pi, 0)),
                    (30, 31, (0, 0, two_pi))]
        solver = IncompressibleNavierStokesSolver(
            Forest(mesh), 3, viscosity=0.01,  # k=2 is too dissipative to
            # see the enstrophy ramp on 8 cells
            bcs=BoundaryConditions({}),
            settings=SolverSettings(solver_tolerance=1e-6, cfl=0.25),
            periodic=periodic,
        )
        tgv = TaylorGreenVortex3D()
        solver.initialize(lambda x, y, z, t: tgv.velocity(x, y, z))
        diag = FlowDiagnostics(solver.dof_u, solver.geo_u)
        e0 = diag.kinetic_energy(solver.velocity)
        z0 = diag.enstrophy(solver.velocity)
        for _ in range(8):
            solver.step()
        e1 = diag.kinetic_energy(solver.velocity)
        z1 = diag.enstrophy(solver.velocity)
        assert np.isfinite(e1) and np.isfinite(z1)
        assert e1 < e0  # dissipation
        assert z1 > 0.9 * z0  # vortex stretching ramps enstrophy up
        # no boundary faces at all on the torus
        assert solver.conn.n_boundary_faces == 0


class TestMassConservation:
    @pytest.mark.slow
    def test_bifurcation_flow_split(self):
        """Pressure-driven flow through the bifurcation: at quasi-steady
        state the inflow balances the sum of the outflows up to a
        discretization error that *shrinks under refinement* (the trace
        fluxes at weakly-imposed openings converge with the mesh; the
        coarse single-cell-across-duct mesh carries ~13%), and both
        daughters carry flow."""
        imbalances = []
        flows = None
        for levels in (0, 1):
            mesh = bifurcation(radius=1.0, parent_length=4.0, child_length=4.0)
            forest = Forest(mesh).refine_all(levels)
            bcs = BoundaryConditions({
                1: PressureDirichlet(1.0),
                2: PressureDirichlet(0.0),
                3: PressureDirichlet(0.0),
            })
            solver = IncompressibleNavierStokesSolver(
                forest, 2, viscosity=1.0,  # strongly viscous: fast settling
                bcs=bcs, settings=SolverSettings(solver_tolerance=1e-8, cfl=0.3,
                                                 dt_max=0.05),
            )
            solver.initialize()
            t_end = 3.0  # several viscous time scales a^2/nu = 1
            while solver.scheme.t < t_end - 1e-10:
                solver.step(min(0.05, t_end - solver.scheme.t))
            q_in = -solver.flow_rate(1)  # inward positive
            q_out2 = solver.flow_rate(2)
            q_out3 = solver.flow_rate(3)
            assert q_in > 0 and q_out2 > 0 and q_out3 > 0
            imbalances.append(abs(q_in - (q_out2 + q_out3)) / q_in)
            flows = (q_in, q_out2, q_out3)
            # walls stay tight (weak no-slip does not leak appreciably)
            assert abs(solver.flow_rate(0)) < 0.02 * q_in
        # the imbalance converges away with resolution
        assert imbalances[1] < 0.75 * imbalances[0]
        assert imbalances[1] < 0.12
        # both daughters carry a comparable share
        q_in, q_out2, q_out3 = flows
        assert 0.2 < q_out2 / (q_out2 + q_out3) < 0.8
