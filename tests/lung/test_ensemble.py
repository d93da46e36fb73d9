"""Tests of member runs of :class:`LungVentilationSimulation`: one
solver setup, N parameter sets on a leading axis.  ``Sim([cfg])`` must
be bitwise identical to the single run ``Sim(cfg)``; E>1 members must
evolve independently (matching per-member sequential runs to solver
tolerance) while sharing the time step."""

import dataclasses

import numpy as np
import pytest

from repro.lung import LungVentilationSimulation
from repro.lung.simulation import MEMBER_VARIABLE_FIELDS
from repro.lung.ventilator import VentilationSettings
from repro.ns.solver import SolverSettings
from repro.robustness import RunConfig


def quick_config(**overrides):
    base = RunConfig(
        generations=1, degree=2, seed=0,
        solver=SolverSettings(solver_tolerance=1e-6, cfl=0.3),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


class TestConstruction:
    def test_needs_members(self):
        with pytest.raises(ValueError, match="at least one"):
            LungVentilationSimulation([])

    def test_shared_fields_enforced(self):
        with pytest.raises(ValueError, match="shared field"):
            LungVentilationSimulation([
                quick_config(), quick_config(degree=3),
            ])

    def test_member_variable_fields_allowed(self):
        sim = LungVentilationSimulation([
            quick_config(),
            quick_config(windkessel_resistance_scale=1.5),
            quick_config(
                ventilation=VentilationSettings(dp_initial=900.0)),
        ])
        assert sim.n_members == 3 and sim.lead == (3,)
        assert sim.solver.velocity.shape == (3, sim.solver.dof_u.n_dofs)
        assert "windkessel_resistance_scale" in MEMBER_VARIABLE_FIELDS

    def test_member_list_builds_twice_unchanged(self):
        """The start-up bound on dt goes into the solver's copy of the
        shared settings, not into the caller's configs: one member list
        builds any number of simulations."""
        configs = [quick_config(), quick_config(windkessel_resistance_scale=1.5)]
        before = [c.to_dict() for c in configs]
        first = LungVentilationSimulation(configs)
        second = LungVentilationSimulation(configs)
        assert [c.to_dict() for c in configs] == before
        assert configs[0].solver.dt_max == float("inf")
        assert np.isfinite(first.solver.settings.dt_max)
        assert first.solver.settings.dt_max == second.solver.settings.dt_max


class TestE1Bitwise:
    def test_single_member_matches_scalar_simulation(self):
        scalar = LungVentilationSimulation(quick_config())
        ensemble = LungVentilationSimulation([quick_config()])
        for _ in range(3):
            s_stats = scalar.step()
            e_stats = ensemble.step()
            assert e_stats.dt == s_stats.dt
        assert np.array_equal(ensemble.solver.velocity[0],
                              scalar.solver.velocity)
        assert np.array_equal(ensemble.member_velocity(0),
                              scalar.solver.velocity)
        assert np.array_equal(ensemble.member_pressure(0),
                              scalar.solver.pressure)
        for c_e, c_s in zip(ensemble.windkessels[0].compartments,
                            scalar.windkessels.compartments):
            assert c_e.volume == c_s.volume
        assert ensemble.tidal_volume_delivered().shape == (1,)
        assert isinstance(scalar.tidal_volume_delivered(), float)
        assert ensemble.tidal_volume_delivered()[0] == \
            scalar.tidal_volume_delivered()
        assert ensemble._inlet_flow[0] == scalar._inlet_flow


class TestMemberIndependence:
    E_CONFIGS = [
        dict(),
        dict(windkessel_resistance_scale=2.0,
             windkessel_compliance_scale=0.5),
        dict(ventilation=VentilationSettings(dp_initial=1200.0)),
    ]

    def test_members_match_sequential_runs(self):
        configs = [quick_config(**kw) for kw in self.E_CONFIGS]
        ensemble = LungVentilationSimulation(configs)
        dt = 2e-4  # fixed step so batched/sequential share the path
        for _ in range(2):
            stats = ensemble.step(dt)
        assert stats.member_cfl is not None
        assert len(stats.member_cfl) == 3
        assert stats.member_pressure_iterations is not None

        for e, cfg in enumerate(configs):
            seq = LungVentilationSimulation(cfg)
            for _ in range(2):
                seq.step(dt)
            ref = seq.solver.velocity
            scale = max(np.abs(ref).max(), 1e-30)
            # batched CG iterates until ALL members converge, so the
            # agreement is at solver-tolerance level, not bitwise
            np.testing.assert_allclose(
                ensemble.member_velocity(e), ref,
                rtol=0, atol=1e-5 * scale, err_msg=f"member {e}",
            )
            np.testing.assert_allclose(
                ensemble.tidal_volume_delivered()[e],
                seq.tidal_volume_delivered(), rtol=1e-5,
            )

    def test_members_actually_differ(self):
        configs = [quick_config(**kw) for kw in self.E_CONFIGS]
        ensemble = LungVentilationSimulation(configs)
        for _ in range(2):
            ensemble.step(2e-4)
        v0 = ensemble.member_velocity(0)
        v2 = ensemble.member_velocity(2)  # higher driving pressure
        assert not np.allclose(v0, v2, rtol=1e-3, atol=1e-12)

    def test_member_records(self):
        configs = [quick_config(**kw) for kw in self.E_CONFIGS[:2]]
        ensemble = LungVentilationSimulation(configs)
        ensemble.step(2e-4)
        recs = ensemble.member_records()
        assert [r.member for r in recs] == [0, 1]
        assert recs[1].config.windkessel_resistance_scale == 2.0
        assert all(r.tidal_volume >= 0 for r in recs)


class TestAdaptiveSteppingShared:
    def test_shared_dt_from_fastest_member(self):
        configs = [
            quick_config(),
            quick_config(
                ventilation=VentilationSettings(dp_initial=1500.0)),
        ]
        ensemble = LungVentilationSimulation(configs)
        s1 = ensemble.step()  # dt_max-capped startup step
        s2 = ensemble.step()  # CFL-adaptive from the batched state
        assert s2.dt > 0
        assert len(s2.member_cfl) == 2
        # the shared step is set by the worst (fastest) member
        assert s2.cfl == pytest.approx(max(s2.member_cfl))
