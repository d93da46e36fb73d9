"""Tests of the JSONL run-log sink and the report aggregation."""

import json

import pytest

from repro.telemetry import (
    SCHEMA,
    RunLogWriter,
    Tracer,
    aggregate_steps,
    read_run_log,
    render_breakdown,
    render_robustness,
    render_span_tree,
    robustness_rows,
    step_record,
)
from repro.telemetry.metrics import (
    MetricRegistry,
    render_metrics_table,
    snapshot_doc,
)
from repro.timeint.dual_splitting import StepStatistics


def make_stats(i, wall=0.1):
    return StepStatistics(
        dt=0.01,
        t=0.01 * (i + 1),
        pressure_iterations=3 + i,
        viscous_iterations=2,
        penalty_iterations=5,
        cfl=0.4,
        wall_time=wall,
        substep_seconds={
            "convective": 0.01 * wall / 0.1,
            "pressure_poisson": 0.06 * wall / 0.1,
            "projection": 0.005 * wall / 0.1,
            "helmholtz": 0.015 * wall / 0.1,
            "penalty": 0.01 * wall / 0.1,
        },
    )


class TestRunLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tr = Tracer(enabled=True)
        with tr.span("step"):
            pass
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_demo_total").inc(7)
        with RunLogWriter(path, meta={"command": "test", "n_dofs": 42}) as w:
            for i in range(3):
                w.write_step(make_stats(i), extra={"inflow_m3_s": 0.1 * i})
            w.write_summary(tr, metrics=snapshot_doc(reg)["metrics"])
        header, steps, summary = read_run_log(path)
        assert header["schema"] == SCHEMA == "repro-runlog/2"
        assert header["n_dofs"] == 42
        assert len(steps) == 3
        assert steps[0]["step"] == 0 and steps[2]["step"] == 2
        assert steps[1]["iterations"]["pressure"] == 4
        assert steps[1]["substeps_s"]["pressure_poisson"] == pytest.approx(0.06)
        assert steps[2]["inflow_m3_s"] == pytest.approx(0.2)
        assert summary["n_steps"] == 3
        (demo,) = summary["metrics"]
        assert demo["name"] == "repro_demo_total"
        assert demo["samples"][0]["value"] == 7
        assert "counters" not in summary and "gauges" not in summary
        assert summary["spans"]["step"]["count"] == 1

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as w:
            w.write_step(make_stats(0))
            w.write_summary()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + step + summary
        for line in lines:
            json.loads(line)

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": "other/9"}\n')
        with pytest.raises(ValueError, match="unsupported run-log schema"):
            read_run_log(path)

    def test_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "step", "step": 0}\n')
        with pytest.raises(ValueError, match="no .* header"):
            read_run_log(path)

    def test_truncated_log_has_no_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        w = RunLogWriter(path)
        w.write_step(make_stats(0))
        w.close()  # crashed run: no summary record
        _, steps, summary = read_run_log(path)
        assert len(steps) == 1 and summary is None

    def test_write_after_close_raises(self, tmp_path):
        w = RunLogWriter(tmp_path / "run.jsonl")
        w.close()
        with pytest.raises(ValueError, match="closed"):
            w.write_step(make_stats(0))

    @pytest.mark.parametrize("cut", [2, 5, 20])
    def test_truncated_final_line_is_skipped_with_warning(self, tmp_path, cut):
        """A run killed mid-write leaves a partial last line; the reader
        must warn and skip it, not raise — byte-wise truncation."""
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path, meta={"command": "test"}) as w:
            for i in range(3):
                w.write_step(make_stats(i))
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-cut])  # cut into the final record
        with pytest.warns(RuntimeWarning, match="truncated final record"):
            header, steps, summary = read_run_log(path)
        assert header["command"] == "test"
        assert len(steps) == 2  # the mangled third step is dropped
        assert summary is None

    def test_truncation_of_trailing_newline_only_is_harmless(self, tmp_path):
        """Cutting exactly the newline leaves a complete JSON line."""
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as w:
            w.write_step(make_stats(0))
        path.write_bytes(path.read_bytes()[:-1])
        _, steps, _ = read_run_log(path)  # no warning expected
        assert len(steps) == 1

    def test_midfile_corruption_still_raises(self, tmp_path):
        """Only the *final* line gets truncation forgiveness; a mangled
        line followed by valid records is corruption."""
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as w:
            w.write_step(make_stats(0))
            w.write_step(make_stats(1))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10]  # mangle the first step record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_run_log(path)


class TestAggregation:
    def test_aggregates_dicts_and_stats_identically(self, tmp_path):
        stats = [make_stats(i) for i in range(4)]
        recs = [step_record(s, i) for i, s in enumerate(stats)]
        for agg in (aggregate_steps(stats), aggregate_steps(recs)):
            assert agg.n_steps == 4
            assert agg.t_end == pytest.approx(0.04)
            assert agg.mean_dt == pytest.approx(0.01)
            assert agg.mean_cfl == pytest.approx(0.4)
            assert agg.total_wall_s == pytest.approx(0.4)
            assert agg.wall_per_step_s == pytest.approx(0.1)
            assert agg.substep_totals_s["pressure_poisson"] == pytest.approx(0.24)
            # pressure iterations: 3, 4, 5, 6 -> mean 4.5
            assert agg.mean_iterations["pressure"] == pytest.approx(4.5)

    def test_breakdown_shares_sum_to_one(self):
        agg = aggregate_steps([make_stats(i) for i in range(3)])
        text = render_breakdown(agg)
        assert "pressure_poisson" in text and "total step" in text
        assert "iters/solve" in text
        # sub-step seconds of make_stats sum to 0.1 == wall -> fully accounted
        accounted = sum(agg.substep_totals_s.values()) / agg.total_wall_s
        assert accounted == pytest.approx(1.0)

    def test_empty_aggregate(self):
        agg = aggregate_steps([])
        assert agg.n_steps == 0 and agg.wall_per_step_s == 0.0
        assert "total step" in render_breakdown(agg)


class TestRenderers:
    def test_span_tree_render(self):
        tr = Tracer(enabled=True)
        with tr.span("step"):
            with tr.span("pressure_poisson"):
                pass
        out = render_span_tree(tr)
        assert "step" in out
        assert "  pressure_poisson" in out  # indented child
        assert "calls" in out

    def test_counter_render(self):
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_demo_total").inc(3)
        reg.gauge("repro_res").set(1e-8)
        out = render_metrics_table(snapshot_doc(reg))
        assert "repro_demo_total" in out and "3" in out
        assert "repro_res" in out and "1e-08" in out


def fault_metrics():
    """A metric list with every robustness family populated, plus an
    unrelated family the view must ignore."""
    reg = MetricRegistry(enabled=True)
    retries = reg.counter("repro_recovery_step_retries_total",
                          labels=("reason",))
    retries.labels("solver_divergence").inc(2)
    retries.labels("nan_detected").inc()
    reg.counter("repro_recovery_step_failures_total",
                labels=("reason",)).labels("nan_detected").inc()
    tier = reg.counter("repro_fallback_tier_total", labels=("chain", "tier"))
    tier.labels(("pressure", "mg_mixed")).inc(40)
    tier.labels(("pressure", "direct")).inc(2)
    reg.counter("repro_fallback_escalations_total",
                labels=("chain",)).labels("pressure").inc(2)
    reg.counter("repro_fallback_exhausted_total", labels=("chain",))
    ckpt = reg.counter("repro_checkpoints_total", labels=("action",))
    ckpt.labels("write").inc(5)
    ckpt.labels("load").inc()
    reg.counter("repro_steps_total").inc(999)
    return snapshot_doc(reg)["metrics"]


class TestRobustnessRender:
    def test_full_counter_set(self):
        assert dict(robustness_rows(fault_metrics())) == {
            "step retries [reason=nan_detected]": 1,
            "step retries [reason=solver_divergence]": 2,
            "step failures [reason=nan_detected]": 1,
            "fallback tier [chain=pressure, tier=direct]": 2,
            "fallback tier [chain=pressure, tier=mg_mixed]": 40,
            "fallback escalations [chain=pressure]": 2,
            "checkpoints [action=load]": 1,
            "checkpoints [action=write]": 5,
        }
        out = render_robustness(fault_metrics())
        assert out.startswith("robustness:")
        assert "step failures [reason=nan_detected]" in out
        assert "repro_steps_total" not in out and "999" not in out

    def test_empty_when_nothing_recorded(self):
        assert render_robustness(None) == ""
        assert render_robustness([]) == ""
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_steps_total").inc(7)
        reg.counter("repro_checkpoints_total", labels=("action",))
        assert render_robustness(snapshot_doc(reg)["metrics"]) == ""

    def test_partial_counters(self):
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_checkpoints_total",
                    labels=("action",)).labels("write").inc(2)
        assert robustness_rows(snapshot_doc(reg)["metrics"]) == [
            ("checkpoints [action=write]", 2)
        ]


class TestOnCorruptWarn:
    def _corrupt_log(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as w:
            for i in range(3):
                w.write_step(make_stats(i))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-10]  # mangle the SECOND step (mid-file)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_warn_mode_skips_midfile_corruption(self, tmp_path):
        """Post-mortem mode: a log damaged mid-file (disk full, partial
        flush) can still be read for what survives."""
        path = self._corrupt_log(tmp_path)
        with pytest.warns(RuntimeWarning, match="skipping corrupt record"):
            header, steps, summary = read_run_log(path, on_corrupt="warn")
        assert header is not None
        assert [s["step"] for s in steps] == [0, 2]
        assert summary is None

    def test_default_mode_still_raises(self, tmp_path):
        path = self._corrupt_log(tmp_path)
        with pytest.raises(ValueError, match="not valid JSON"):
            read_run_log(path)

    def test_invalid_mode_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as w:
            w.write_step(make_stats(0))
        with pytest.raises(ValueError, match="on_corrupt"):
            read_run_log(path, on_corrupt="ignore")
