"""Fault-injection tests for the worker pool.

The cleanup invariant under test: whether a round completes or a worker
dies mid-solve, the pool never leaks a ``/dev/shm`` segment — a crash
surfaces as a structured :class:`~repro.parallel.WorkerCrash` after the
pool has torn down every worker process and unlinked every
shared-memory buffer.  The checkpoint half reuses the hidden ``repro
lung --crash-after-step`` hook one layer up: a run killed mid-flight
resumes bit-identically, serial or distributed.
"""

import glob
import json
import os

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel import CRASH_EXIT_CODE, WorkerCrash, WorkerPool
from repro.telemetry import METRICS, TRACER
from repro.telemetry.metrics import load_metrics, snapshot_doc

from ..conftest import assert_same_steps, run_cli, step_records

pytestmark = pytest.mark.parallel


def make_op(forest, degree=2, dirichlet=(1,)):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet)


def shm_segments(prefix: str) -> list[str]:
    return glob.glob(f"/dev/shm/{prefix}*")


def metric_total(name: str, doc=None) -> float:
    """Sum of a counter's samples in ``doc`` (default: the live registry)."""
    doc = snapshot_doc(METRICS) if doc is None else doc
    (m,) = [m for m in doc["metrics"] if m["name"] == name]
    return sum(s["value"] for s in m["samples"])


@pytest.fixture
def pool_op():
    forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
    return make_op(forest)


class TestWorkerCrash:
    @pytest.mark.parametrize("when", ["before_post", "after_post"])
    def test_crash_raises_structured_error(self, when, pool_op, rng):
        x = rng.standard_normal(pool_op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", pool_op)
        pool.start()
        pool.vmult("op", x)  # the first round maps the session buffers
        assert shm_segments(pool.shm_prefix) != []
        pool.inject_crash(1, when=when)
        with pytest.raises(WorkerCrash) as exc:
            pool.vmult("op", x)
        assert exc.value.rank == 1
        # the exit code is the --crash-after-step convention when the
        # reaper caught it in time (it can lag the pipe hangup)
        assert exc.value.exitcode in (CRASH_EXIT_CODE, None)

    @pytest.mark.parametrize("when", ["before_post", "after_post"])
    def test_crash_releases_all_shared_memory(self, when, pool_op, rng):
        x = rng.standard_normal(pool_op.n_dofs)
        pool = WorkerPool(3)
        pool.register("op", pool_op)
        pool.start()
        pool.vmult("op", x)
        pool.vmult("op", rng.standard_normal((2, pool_op.n_dofs)))
        assert len(shm_segments(pool.shm_prefix)) > 1
        pool.inject_crash(0, when=when)
        with pytest.raises(WorkerCrash):
            pool.vmult("op", x)
        assert shm_segments(pool.shm_prefix) == []
        # every worker process is gone, not just the crashed one
        assert all(not p.is_alive() for p in pool._procs)

    def test_crashed_pool_rejects_further_work(self, pool_op, rng):
        x = rng.standard_normal(pool_op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", pool_op)
        pool.start()
        pool.inject_crash(0)
        with pytest.raises(WorkerCrash):
            pool.vmult("op", x)
        with pytest.raises(RuntimeError, match="closed"):
            pool.vmult("op", x)

    def test_crash_is_counted_once(self, pool_op, rng):
        """A command on a torn-down pool is a usage error, not a second
        worker crash."""
        x = rng.standard_normal(pool_op.n_dofs)
        METRICS.reset()
        METRICS.enable()
        try:
            pool = WorkerPool(2)
            pool.register("op", pool_op)
            pool.start()
            pool.inject_crash(1)
            with pytest.raises(WorkerCrash):
                pool.vmult("op", x)
            with pytest.raises(RuntimeError, match="pool is closed"):
                pool.inject_crash(0)
            crashes = metric_total("repro_parallel_worker_crashes_total")
        finally:
            METRICS.disable()
            METRICS.reset()
        assert crashes == 1.0

    def test_healthy_close_releases_shared_memory(self, pool_op, rng):
        x = rng.standard_normal(pool_op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", pool_op)
        with pool:
            pool.vmult("op", x)
            assert shm_segments(pool.shm_prefix) != []
        assert shm_segments(pool.shm_prefix) == []
        pool.close()  # idempotent


class TestWorkerCrashDuringLungRun:
    def test_crash_exits_1_with_summary_and_export(self, tmp_path,
                                                   monkeypatch, capsys):
        """A worker dying mid-step ends ``repro lung`` with a structured
        error: exit 1, a closed run log, a metrics export counting only
        the completed rounds, no leaked segment, telemetry off."""
        from repro.cli import main
        from repro.lung import LungVentilationSimulation

        step = LungVentilationSimulation.step
        pools = []

        def crashing_step(self):
            pool = self.solver.distributed_context.pool
            pools.append(pool)
            if len(pools) == 2:
                pool.inject_crash(1)
            return step(self)

        monkeypatch.setattr(LungVentilationSimulation, "step", crashing_step)
        log, export = tmp_path / "run.jsonl", tmp_path / "run.json"
        rc = main(["lung", "--steps", "3", "--generations", "1",
                   "--workers", "2", "--log-file", str(log),
                   "--metrics-file", str(export)])
        assert rc == 1
        assert "error: worker 1" in capsys.readouterr().err
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["type"] for r in records] == ["header", "step", "summary"]
        doc = load_metrics(export)
        pool_vmults = metric_total("repro_parallel_pool_vmults_total", doc)
        assert pool_vmults > 1
        # the crashed round was dispatched but completed on no rank
        assert metric_total("repro_parallel_worker_vmults_total", doc) == \
            2 * (pool_vmults - 1)
        assert shm_segments(pools[0].shm_prefix) == []
        assert not TRACER.enabled and not METRICS.enabled


class TestCrashResumeDistributed:
    """A checkpointed distributed run killed mid-flight resumes
    bit-identically — and the resumed run may switch between serial and
    distributed execution, because fp64 steps are bitwise either way."""

    def test_killed_distributed_run_resumes_bit_identically(self, tmp_path):
        base = ["lung", "--steps", "4", "--generations", "1",
                "--checkpoint-every", "2", "--checkpoint-keep", "3"]
        # reference: 4 uninterrupted serial steps
        run_cli(*base, "--checkpoint-dir", tmp_path / "ck-ref",
                "--log-file", tmp_path / "ref.jsonl", cwd=tmp_path)
        # distributed run killed right after step 2 (os._exit, no cleanup)
        run_cli(*base, "--workers", "2", "--checkpoint-dir", tmp_path / "ck-crash",
                "--crash-after-step", "2", cwd=tmp_path, rc=CRASH_EXIT_CODE)
        # resume the remaining 2 steps, again distributed
        run_cli("lung", "--steps", "2", "--generations", "1", "--workers", "2",
                "--checkpoint-every", "2", "--checkpoint-keep", "3",
                "--checkpoint-dir", tmp_path / "ck-crash", "--resume", "latest",
                "--log-file", tmp_path / "resumed.jsonl", cwd=tmp_path)
        ref = step_records(tmp_path / "ref.jsonl")[-2:]
        res = step_records(tmp_path / "resumed.jsonl")
        assert len(res) == 2
        assert_same_steps(ref, res)
        # the checkpoints written before the kill match the serial ones
        with np.load(tmp_path / "ck-ref" / "ckpt-00000001.npz") as A, \
                np.load(tmp_path / "ck-crash" / "ckpt-00000001.npz") as B:
            for k in A.files:
                if k == "config_json":
                    continue
                assert np.array_equal(A[k], B[k]), f"field {k} differs"


class TestMemberRunHonoursWorkers:
    def test_two_members_on_two_workers_equal_serial(self):
        """A member run distributes its pressure mat-vec like a single
        run (``RunConfig.workers``), fp64 steps are bitwise the serial
        ones, and ``close()`` leaves no pool segment behind."""
        from repro.lung import LungVentilationSimulation
        from repro.ns.solver import SolverSettings
        from repro.robustness import RunConfig

        def run(workers):
            configs = [
                RunConfig(
                    generations=1, degree=2, seed=0, workers=workers,
                    windkessel_resistance_scale=scale,
                    solver=SolverSettings(solver_tolerance=1e-6, cfl=0.3),
                )
                for scale in (1.0, 1.5)
            ]
            sim = LungVentilationSimulation(configs)
            try:
                assert (sim.solver._dist_ctx is not None) == (workers >= 2)
                for _ in range(2):
                    sim.step(2e-4)
                return (np.array(sim.solver.velocity),
                        np.array(sim.solver.pressure),
                        sim.tidal_volume_delivered())
            finally:
                sim.close()

        serial = run(1)
        distributed = run(2)
        assert shm_segments(f"repro{os.getpid()}p") == []
        assert serial[0].shape[0] == 2
        for s, d in zip(serial, distributed):
            assert np.array_equal(s, d)


class TestFloat32LungStepOnTwoWorkers:
    def test_tidal_volume_matches_serial(self, tmp_path):
        """``repro lung --steps 1 --compute-dtype float32`` on 2 workers and
        serially: the pressure CG stays fp64 even at ``compute_dtype=float32``,
        so the distributed step agrees to fp32 round-off at worst — the
        tidal volumes within 1e-5 relative."""
        tidal = []
        for name, extra in (("serial", []), ("dist", ["--workers", "2"])):
            log = tmp_path / f"lung32_{name}.jsonl"
            run_cli("lung", "--steps", "1", "--compute-dtype", "float32", *extra,
                    "--log-file", log, cwd=tmp_path)
            tidal.append(step_records(log)[-1]["tidal_volume_ml"])
        serial, dist = tidal
        assert abs(serial - dist) <= 1e-5 * max(abs(serial), 1e-30), (serial, dist)
