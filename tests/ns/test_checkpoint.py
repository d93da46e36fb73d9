"""Tests of checkpoint/restart: a restarted run must continue exactly."""

import dataclasses

import numpy as np
import pytest

from repro.lung import LungVentilationSimulation
from repro.robustness import RunConfig
from repro.mesh.generators import box
from repro.mesh.octree import Forest
from repro.ns import (
    BeltramiFlow,
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    SolverSettings,
    VelocityDirichlet,
)
from repro.ns.checkpoint import (
    load_lung_state,
    load_scheme_state,
    save_lung_state,
    save_scheme_state,
)


def beltrami_solver():
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(1)
    flow = BeltramiFlow(0.05)
    bcs = BoundaryConditions(
        {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
    )
    s = IncompressibleNavierStokesSolver(
        forest, 2, 0.05, bcs, SolverSettings(solver_tolerance=1e-8)
    )
    s.initialize(flow.velocity)
    return s


class TestSchemeCheckpoint:
    def test_restart_is_bit_identical(self, tmp_path):
        ref = beltrami_solver()
        for _ in range(4):
            ref.step(0.01)
        # save at step 2 of an identical twin, restore, and continue
        twin = beltrami_solver()
        for _ in range(2):
            twin.step(0.01)
        path = tmp_path / "state.npz"
        save_scheme_state(path, twin.scheme)

        fresh = beltrami_solver()
        load_scheme_state(path, fresh.scheme)
        assert fresh.scheme.t == pytest.approx(twin.scheme.t)
        for _ in range(2):
            fresh.step(0.01)
        assert np.allclose(fresh.velocity, ref.velocity, atol=1e-12)
        assert np.allclose(fresh.pressure, ref.pressure, atol=1e-12)

    def test_size_mismatch_rejected(self, tmp_path):
        s = beltrami_solver()
        s.step(0.01)
        path = tmp_path / "state.npz"
        save_scheme_state(path, s.scheme)
        other = IncompressibleNavierStokesSolver(
            Forest(box(boundary_ids={0: 1})).refine_all(1), 3, 0.05,
            BoundaryConditions({1: VelocityDirichlet.no_slip()}),
            SolverSettings(solver_tolerance=1e-6),
        )
        other.initialize()
        with pytest.raises(ValueError, match="does not match"):
            load_scheme_state(path, other.scheme)


def lung_config():
    return RunConfig(
        generations=1, degree=2,
        solver=SolverSettings(solver_tolerance=1e-4, cfl=0.3),
    )


class TestLungCheckpoint:
    def test_lung_restart_continues_exactly(self, tmp_path):
        ref = LungVentilationSimulation(lung_config())
        twin = LungVentilationSimulation(lung_config())
        for _ in range(4):
            ref.step()
        for _ in range(2):
            twin.step()
        path = tmp_path / "lung.npz"
        save_lung_state(path, twin)

        fresh = LungVentilationSimulation(lung_config())
        load_lung_state(path, fresh)
        for _ in range(2):
            fresh.step()
        assert fresh.time == pytest.approx(ref.time, rel=1e-12)
        assert np.allclose(fresh.solver.velocity, ref.solver.velocity, atol=1e-10)
        assert fresh.tidal_volume_delivered() == pytest.approx(
            ref.tidal_volume_delivered(), rel=1e-10
        )

    def test_outlet_count_validated(self, tmp_path):
        sim1 = LungVentilationSimulation(lung_config())
        sim1.step()
        path = tmp_path / "lung.npz"
        save_lung_state(path, sim1)
        sim2 = LungVentilationSimulation(
            dataclasses.replace(lung_config(), generations=2)
        )
        with pytest.raises(ValueError, match="outlet count"):
            load_lung_state(path, sim2)


class TestMemberRunCheckpoint:
    @staticmethod
    def members():
        return [
            dataclasses.replace(lung_config(), windkessel_resistance_scale=r)
            for r in (1.0, 1.5)
        ]

    def test_member_restart_continues_bitwise(self, tmp_path):
        """E = 2, save after 2 of 4 steps: the resumed members equal the
        uninterrupted ones bit for bit."""
        ref = LungVentilationSimulation(self.members())
        twin = LungVentilationSimulation(self.members())
        for _ in range(4):
            ref.step()
        for _ in range(2):
            twin.step()
        path = save_lung_state(tmp_path / "members.npz", twin)
        with np.load(path) as data:
            assert data["wk_volumes"].shape == (2, twin.lung.n_outlets)
            assert data["vent_dp"].shape == data["config_json"].shape == (2,)

        fresh = LungVentilationSimulation(self.members())
        stored = load_lung_state(path, fresh)
        assert [RunConfig.from_dict(d) for d in stored] == fresh.configs
        for _ in range(2):
            fresh.step()
        assert fresh.time == ref.time
        assert np.array_equal(fresh.solver.velocity, ref.solver.velocity)
        assert np.array_equal(fresh.solver.pressure, ref.solver.pressure)
        for bank_f, bank_r in zip(fresh.windkessel_banks, ref.windkessel_banks):
            assert [c.volume for c in bank_f.compartments] == [
                c.volume for c in bank_r.compartments
            ]
        assert [v.dp for v in fresh.ventilators] == [v.dp for v in ref.ventilators]

    def test_ragged_controller_histories_round_trip(self, tmp_path):
        """Member periods may differ, so members may have completed
        different numbers of breathing cycles."""
        sim = LungVentilationSimulation(self.members())
        sim.step()
        sim.ventilators[0].end_of_cycle(4.0e-4)
        sim.ventilators[0].end_of_cycle(4.5e-4)
        sim.ventilators[1].end_of_cycle(3.0e-4)
        path = save_lung_state(tmp_path / "ragged.npz", sim)
        fresh = LungVentilationSimulation(self.members())
        load_lung_state(path, fresh)
        for v_f, v_s in zip(fresh.ventilators, sim.ventilators):
            assert v_f.dp == v_s.dp
            assert v_f.dp_history == v_s.dp_history
            assert v_f.tidal_history == v_s.tidal_history

    def test_drift_check_covers_every_member(self, tmp_path):
        sim = LungVentilationSimulation(self.members())
        sim.step()
        path = save_lung_state(tmp_path / "members.npz", sim)
        drifted = self.members()
        drifted[1] = dataclasses.replace(
            drifted[1], windkessel_resistance_scale=2.0
        )
        with pytest.raises(ValueError, match="windkessel_resistance_scale"):
            load_lung_state(
                path, LungVentilationSimulation(drifted), config_drift="raise"
            )

    def test_member_count_validated(self, tmp_path):
        sim = LungVentilationSimulation(self.members())
        sim.step()
        path = save_lung_state(tmp_path / "members.npz", sim)
        with pytest.raises(ValueError, match="does not match"):
            load_lung_state(path, LungVentilationSimulation(lung_config()))

    def test_run_polls_the_checkpoint_manager(self, tmp_path):
        from repro.robustness import CheckpointManager

        sim = LungVentilationSimulation(self.members())
        manager = CheckpointManager(tmp_path, every_steps=1)
        sim.run(1.0, max_steps=2, dt_initial=2e-4, checkpoints=manager)
        assert manager.n_writes == 2
        fresh = LungVentilationSimulation(self.members())
        manager.resume(fresh, config_drift="raise")
        assert np.array_equal(fresh.solver.velocity, sim.solver.velocity)


def _as_cell_major(path, version, n_cells):
    """Rewrite a checkpoint as the cell-major file of an older
    ``version`` of the same state: pressures ``(*lead, N, n³)``,
    velocity histories component-major ``(*lead, 3, N, n³)`` in version
    3 and interleaved per cell ``(*lead, N, 3, n³)`` before it."""
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    for key, x in payload.items():
        if key.startswith(("u_", "conv_", "p_")):
            c = 1 if key.startswith("p_") else 3
            lanes = x.reshape(x.shape[:-1] + (c, -1, n_cells))
            payload[key] = np.moveaxis(lanes, -1, -2 if version == 3 else -3).reshape(x.shape)
    payload["version"] = np.array(version)
    np.savez_compressed(path, **payload)
    return payload


class TestVelocityLayoutVersions:
    """Version 4 stores every history in the DG vectors' lane order; the
    cell-major files of versions 2 and 3 of the same state resume bit
    for bit."""

    @pytest.mark.parametrize("members", [1, 2])
    def test_versions_2_and_3_resume_bitwise(self, tmp_path, members):
        configs = lung_config if members == 1 else TestMemberRunCheckpoint.members
        ref = LungVentilationSimulation(configs())
        twin = LungVentilationSimulation(configs())
        for _ in range(4):
            ref.step()
        for _ in range(2):
            twin.step()
        v4 = save_lung_state(tmp_path / "v4.npz", twin)
        paths = [v4]
        with np.load(v4) as data:
            assert int(data["version"]) == 4
            for version in (2, 3):
                path = save_lung_state(tmp_path / f"v{version}.npz", twin)
                old = _as_cell_major(path, version, twin.solver.dof_u.n_cells)
                for key in ("u_0", "conv_0", "p_0"):
                    assert not np.array_equal(data[key], old[key])
                paths.append(path)
        scheme = twin.solver.scheme
        for path in paths:
            fresh = LungVentilationSimulation(configs())
            load_lung_state(path, fresh)
            got = fresh.solver.scheme
            for a, b in zip(got.u_history + got.conv_history + got.p_history,
                            scheme.u_history + scheme.conv_history + scheme.p_history,
                            strict=True):
                assert np.array_equal(a, b)
            for _ in range(2):
                fresh.step()
            assert np.array_equal(fresh.solver.velocity, ref.solver.velocity)
            assert np.array_equal(fresh.solver.pressure, ref.solver.pressure)
