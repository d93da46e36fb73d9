"""Tests of ``repro monitor``: live tailing of a JSONL run log."""

import io

import pytest

from repro.telemetry import RunLogWriter, monitor_file, monitor_once
from repro.telemetry.metrics import MetricRegistry, snapshot_doc
from repro.timeint.dual_splitting import StepStatistics


def make_stats(i, wall=0.2):
    return StepStatistics(
        dt=0.001,
        t=0.001 * (i + 1),
        pressure_iterations=4,
        viscous_iterations=2,
        penalty_iterations=9,
        cfl=0.35,
        wall_time=wall,
        substep_seconds={"pressure_poisson": 0.1 * wall / 0.2},
    )


def write_log(path, n_steps=4, planned=10, summary=False, metrics=None):
    w = RunLogWriter(path, meta={"command": "lung", "steps": planned})
    for i in range(n_steps):
        w.write_step(make_stats(i), extra={"recovery_events": i})
    if summary:
        w.write_summary(metrics=metrics)
    w.close()
    return path


class TestMonitorOnce:
    def test_running_log(self, tmp_path):
        path = write_log(tmp_path / "run.jsonl")
        text, finished = monitor_once(path)
        assert not finished
        assert "steps: 4/10 (40%)" in text
        assert "sim t=0.004" in text
        assert "dt=1.000e-03" in text
        assert "step rate: 5 steps/s" in text
        assert "ETA: 1.2 s (6 steps left)" in text
        assert "CFL: 0.350" in text
        assert "pressure 4.0" in text
        assert "recovery events so far: 3" in text
        assert "status: running" in text

    def test_finished_log_shows_robustness(self, tmp_path):
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_recovery_step_retries_total",
                    labels=("reason",)).labels("energy_blowup").inc(2)
        reg.counter("repro_checkpoints_total",
                    labels=("action",)).labels("write").inc()
        path = write_log(tmp_path / "run.jsonl", summary=True,
                         metrics=snapshot_doc(reg)["metrics"])
        text, finished = monitor_once(path)
        assert finished
        assert "status: finished" in text
        assert "robustness:" in text
        lines = [ln.split() for ln in text.splitlines()]
        assert ["step", "retries", "[reason=energy_blowup]", "2"] in lines
        assert ["checkpoints", "[action=write]", "1"] in lines

    def test_worker_phase_breakdown(self, tmp_path):
        # distributed runs attach cumulative per-rank phase seconds to
        # every step record; the monitor renders the latest breakdown
        path = tmp_path / "run.jsonl"
        w = RunLogWriter(path, meta={"command": "lung", "steps": 4})
        phases = {
            "0": {"pack": 0.01, "post": 0.001, "interior": 0.6,
                  "wait": 0.2, "cut": 0.15, "accumulate": 0.039},
            "1": {"pack": 0.02, "post": 0.001, "interior": 0.5,
                  "wait": 0.3, "cut": 0.14, "accumulate": 0.039},
        }
        w.write_step(make_stats(0), extra={"worker_phases": phases})
        w.close()
        text, _ = monitor_once(path)
        assert "worker phases (% of per-rank round time):" in text
        assert "rank 0:" in text and "rank 1:" in text
        assert "interior 60.0%" in text and "wait 20.0%" in text

    def test_serial_log_has_no_worker_section(self, tmp_path):
        path = write_log(tmp_path / "run.jsonl")
        text, _ = monitor_once(path)
        assert "worker phases" not in text

    def test_headerless_steps_waiting(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunLogWriter(path, meta={"command": "lung"}).close()
        text, finished = monitor_once(path)
        assert not finished
        assert "no step records yet" in text
        assert "waiting for first step" in text

    def test_no_planned_steps_no_eta(self, tmp_path):
        path = tmp_path / "run.jsonl"
        w = RunLogWriter(path, meta={"command": "lung"})
        w.write_step(make_stats(0))
        w.close()
        text, _ = monitor_once(path)
        assert "steps: 1\n" in text or "steps: 1 " in text
        assert "ETA" not in text

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = write_log(tmp_path / "run.jsonl")
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.warns(RuntimeWarning):
            text, finished = monitor_once(path)
        assert "steps: 3/10" in text  # last step dropped, rest intact
        assert not finished


class TestMonitorFile:
    def test_single_shot(self, tmp_path):
        path = write_log(tmp_path / "run.jsonl", summary=True)
        out = io.StringIO()
        assert monitor_file(path, stream=out) == 0
        assert "status: finished" in out.getvalue()

    def test_follow_stops_on_summary(self, tmp_path):
        path = write_log(tmp_path / "run.jsonl", summary=True)
        out = io.StringIO()
        assert monitor_file(path, follow=True, interval=0.0, stream=out) == 0
        assert out.getvalue().count("status: finished") == 1

    def test_follow_respects_max_polls(self, tmp_path):
        path = write_log(tmp_path / "run.jsonl")  # never finishes
        out = io.StringIO()
        assert monitor_file(path, follow=True, interval=0.0, stream=out,
                            max_polls=3) == 0
        assert out.getvalue().count("status: running") == 3

    def test_missing_file_is_an_error(self, tmp_path):
        out = io.StringIO()
        assert monitor_file(tmp_path / "nope.jsonl", stream=out) == 1
        assert "error:" in out.getvalue()

    def test_corrupt_log_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": "other/9"}\n')
        out = io.StringIO()
        assert monitor_file(path, stream=out) == 1
        assert "unsupported run-log schema" in out.getvalue()

class TestFollowInterrupt:
    def test_ctrl_c_prints_final_status_and_exits_cleanly(
            self, tmp_path, monkeypatch):
        """Ctrl-C during --follow is a normal way to stop watching: the
        monitor prints one final status block and exits 0."""
        import repro.telemetry.monitor as mon

        def interrupt(_):
            raise KeyboardInterrupt

        monkeypatch.setattr(mon.time, "sleep", interrupt)
        path = write_log(tmp_path / "run.jsonl")  # running, never finishes
        out = io.StringIO()
        assert monitor_file(path, follow=True, interval=5.0, stream=out) == 0
        text = out.getvalue()
        assert "interrupted -- final status:" in text
        # the final summary block repeats the status line after the interrupt
        assert text.count("status: running") >= 2
