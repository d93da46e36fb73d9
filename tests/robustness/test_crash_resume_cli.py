"""Kill-and-resume across a real process boundary.

The reference run advances 2N steps and checkpoints every N; the crash
run checkpoints at step N and then dies with ``os._exit(137)`` (the CLI's
deterministic crash injection, indistinguishable from kill -9: no flushes,
no atexit); the resumed process loads ``latest`` and advances N more
steps.  The state both paths checkpoint at step 2N must agree to the
last bit."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.telemetry import METRICS, TRACER, read_run_log, robustness_rows

from ..conftest import assert_same_steps, run_cli, step_records
from .test_recovery import FaultyConvective


def kill_and_resume(tmp_path, n=2, extra=()):
    """Run the reference (2n steps, a checkpoint every n), the process
    crashed after step n and the one resumed for n more steps; compare
    the step-2n checkpoints field by field and return the reference and
    resumed step records."""
    ref_dir = tmp_path / "ref"
    crash_dir = tmp_path / "crash"
    ref_log, resumed_log = tmp_path / "ref.jsonl", tmp_path / "resumed.jsonl"
    every = ["--checkpoint-every", str(n), "--checkpoint-keep", "5"]

    run_cli("lung", "--steps", 2 * n, *every, *extra,
            "--checkpoint-dir", ref_dir, "--log-file", ref_log)
    crash = run_cli("lung", "--steps", 2 * n, *every, *extra,
                    "--checkpoint-dir", crash_dir, "--crash-after-step", n,
                    rc=137)
    assert f"simulated crash after step {n}" in crash.stdout
    # the crashed run left exactly the step-n checkpoint behind
    assert sorted(p.name for p in crash_dir.glob("*.npz")) == [
        "ckpt-00000000.npz"
    ]

    resumed = run_cli("lung", "--steps", n, *every, "--checkpoint-dir",
                      crash_dir, "--resume", "latest",
                      "--log-file", resumed_log, *extra)
    assert "resumed from" in resumed.stdout

    with np.load(ref_dir / "ckpt-00000001.npz") as A, \
            np.load(crash_dir / "ckpt-00000001.npz") as B:
        assert set(A.files) == set(B.files)
        for key in sorted(A.files):
            if key != "config_json":
                assert np.array_equal(A[key], B[key]), (
                    f"checkpoint field {key} differs after kill/resume"
                )
    ref, res = step_records(ref_log), step_records(resumed_log)
    assert len(ref) == 2 * n and len(res) == n
    return ref, res


class TestCrashResume:
    @pytest.mark.slow
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """6 steps with a checkpoint every 3, killed after step 3: the
        resumed steps 4-6 equal the uninterrupted run's."""
        ref, resumed = kill_and_resume(tmp_path, n=3)
        assert_same_steps(ref[3:], resumed)

    @pytest.mark.slow
    def test_member_run_kill_and_resume_is_bit_identical(self, tmp_path):
        """A 2-member run survives kill -9 and resume: the resumed
        per-member step records equal the uninterrupted run's (JSON
        floats round-trip exactly, so equality is bitwise)."""
        ref, resumed = kill_and_resume(
            tmp_path, extra=["--resistance-scales", "1.0,1.5"]
        )
        assert_same_steps(ref[2:], resumed, keys=(
            "t", "dt", "cfl", "iterations", "inflow_m3_s", "tidal_volume_ml",
            "member_cfl", "member_pressure_iterations"))
        assert all(len(a["inflow_m3_s"]) == 2 for a in ref[2:])


class TestCheckpointFlags:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["lung", "--steps", "1", "--resume", "latest"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_from_empty_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["lung", "--steps", "1",
                     "--checkpoint-dir", str(tmp_path / "empty"),
                     "--resume", "latest"]) == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["lung", "--steps", "1",
                     "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoints_written_and_rotated(self, tmp_path, capsys):
        ckpt = tmp_path / "ck"
        assert main(["lung", "--steps", "4", "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", "1", "--checkpoint-keep", "2"]) == 0
        names = sorted(p.name for p in ckpt.glob("*.npz"))
        assert names == ["ckpt-00000002.npz", "ckpt-00000003.npz"]
        assert (ckpt / "latest").read_text().strip() == "ckpt-00000003.npz"

    def test_config_file_drives_the_run(self, tmp_path, capsys):
        from repro.robustness import RunConfig

        cfg = tmp_path / "run.json"
        cfg.write_text(RunConfig(generations=1, degree=2).to_json())
        assert main(["lung", "--steps", "1", "--config", str(cfg)]) == 0
        assert "lung g=1" in capsys.readouterr().out

    def test_run_log_records_recovery_counters(self, tmp_path):
        # a clean traced run reports zero-fault telemetry: the recovery
        # families are in the summary's metrics but carry no samples
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--trace",
                     "--log-file", str(log)]) == 0
        summary = [json.loads(line) for line in log.read_text().splitlines()
                   if json.loads(line).get("type") == "summary"][0]
        assert "counters" not in summary
        recovery = [m for m in summary["metrics"]
                    if m["name"].startswith("repro_recovery_")]
        assert len(recovery) == 2
        assert not any(m["samples"] for m in recovery)


class PoisonOnce:
    """Preconditioner proxy whose first application is non-finite: one
    injected pressure-fallback escalation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def vmult(self, r):
        self.calls += 1
        out = self.inner.vmult(r)
        return np.full_like(out, np.nan) if self.calls == 1 else out


def rig_lung(monkeypatch, rig):
    """Make ``repro lung`` pass the simulation it builds through
    ``rig(sim)`` before stepping."""
    import repro.lung

    class Rigged(repro.lung.LungVentilationSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rig(self)

    monkeypatch.setattr(repro.lung, "LungVentilationSimulation", Rigged)


def poison_convective(sim):
    ops = sim.solver.scheme.ops
    ops.convective = FaultyConvective(ops.convective, persistent_from=1)


def poison_first_pressure_solve(sim):
    chain = sim.solver.pressure_fallback
    tier = chain.tiers[0]
    chain._preconditioners[tier.name] = PoisonOnce(chain.preconditioner(tier))


class TestTelemetrySession:
    """Every exit of a traced ``repro lung`` turns the global tracer and
    metric registry off again."""

    @pytest.mark.parametrize("flags", [
        ["--config", "{tmp}/nope.json"],
        ["--resume", "latest"],
        ["--checkpoint-dir", "{tmp}/empty", "--resume", "latest"],
    ], ids=["bad_config", "resume_without_dir", "resume_error"])
    def test_exit_2_leaves_telemetry_off(self, tmp_path, capsys, flags):
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert main(["lung", "--steps", "1", "--trace", "--metrics-file",
                     str(tmp_path / "m.prom"), *flags]) == 2
        assert not TRACER.enabled and not METRICS.enabled

    def test_step_failure_leaves_telemetry_off(self, tmp_path, capsys,
                                               monkeypatch):
        rig_lung(monkeypatch, poison_convective)
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--trace",
                     "--log-file", str(log)]) == 1
        assert "failed after 4 attempt(s)" in capsys.readouterr().err
        assert not TRACER.enabled and not METRICS.enabled
        # the summary is written after the harvest and counts the
        # abandoned step under its reason
        _, _, summary = read_run_log(log)
        rows = dict(robustness_rows(summary["metrics"]))
        assert rows["step retries [reason=non_finite_convective]"] == 3
        assert rows["step failures [reason=non_finite_convective]"] == 1


class TestRobustnessViews:
    def test_report_monitor_dashboard_agree(self, tmp_path, capsys,
                                            monkeypatch):
        """An injected pressure-fallback escalation and two checkpoint
        writes show the same numbers in ``repro report``, ``repro
        monitor`` and the dashboard: all three render one view."""
        import html

        from repro.telemetry import render_robustness

        rig_lung(monkeypatch, poison_first_pressure_solve)
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--trace",
                     "--log-file", str(log),
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--checkpoint-every", "1"]) == 0
        _, _, summary = read_run_log(log)
        rows = dict(robustness_rows(summary["metrics"]))
        assert rows["fallback escalations [chain=pressure]"] == 1
        assert rows["fallback tier [chain=pressure, tier=mg_double]"] == 1
        assert rows["fallback tier [chain=pressure, tier=mg_mixed]"] >= 1
        assert rows["checkpoints [action=write]"] == 2
        block = render_robustness(summary["metrics"])

        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        assert block in capsys.readouterr().out
        assert main(["monitor", str(log)]) == 0
        assert block in capsys.readouterr().out
        dash = tmp_path / "dash.html"
        assert main(["report", "--html", str(log),
                     "--output", str(dash)]) == 0
        page = dash.read_text()
        for row, n in rows.items():
            assert (f"<td>{html.escape(row)}</td>"
                    f'<td class="num">{n}</td>') in page
