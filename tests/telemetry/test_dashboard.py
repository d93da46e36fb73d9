"""Tests of the self-contained HTML run dashboard."""

import pytest

from repro.telemetry import (
    RunLogWriter,
    render_html_dashboard,
    write_html_dashboard,
)
from repro.telemetry.metrics import MetricRegistry, snapshot_doc
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
        pressure_residual=10.0 ** (-i - 2),
        substep_seconds={"pressure_poisson": 0.06 * wall / 0.1},
    )


def write_log(path, n_steps=5, extra=None):
    reg = MetricRegistry(enabled=True)
    reg.counter("repro_recovery_step_retries_total",
                labels=("reason",)).labels("nan_detected").inc(2)
    reg.counter("repro_checkpoints_total",
                labels=("action",)).labels("write").inc(3)
    with RunLogWriter(path, meta={"command": "lung", "n_dofs": 99}) as w:
        for i in range(n_steps):
            w.write_step(
                make_stats(i),
                extra={"inflow_m3_s": 1e-4 * i,
                       "tidal_volume_ml": 20.0 * i,
                       **(extra or {})},
            )
        w.write_summary(metrics=snapshot_doc(reg)["metrics"])
    return path


class TestRenderDashboard:
    def test_self_contained_html_with_sparklines(self, tmp_path):
        """Acceptance: the dashboard is one self-contained HTML file —
        inline CSS/SVG, no external fetches — with populated charts."""
        log = write_log(tmp_path / "run.jsonl")
        out = tmp_path / "dash.html"
        write_html_dashboard(log, out)
        html = out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html and "polyline" in html
        # no external resources: everything inline
        assert "http://" not in html and "https://" not in html
        assert "<script src" not in html and "<link" not in html
        # dark mode ships with the file
        assert "prefers-color-scheme: dark" in html
        # headline tiles and series cards
        assert "not enough data" not in html
        assert "steps" in html and "sim time" in html
        assert "pressure residual" in html.lower()

    def test_recovery_counters_surface_in_robustness_section(self, tmp_path):
        log = write_log(tmp_path / "run.jsonl")
        html = render_html_dashboard(*_read(log))
        assert ("<td>step retries [reason=nan_detected]</td>"
                '<td class="num">2</td>') in html
        # checkpoints are part of the one robustness view too
        assert ("<td>checkpoints [action=write]</td>"
                '<td class="num">3</td>') in html

    def test_metrics_doc_renders_catalog(self, tmp_path):
        """The catalog lists the metric list the run's summary carries."""
        log = write_log(tmp_path / "run.jsonl")
        html = render_html_dashboard(*_read(log))
        assert "<code>repro_checkpoints_total</code>" in html
        assert "<code>repro_recovery_step_retries_total</code>" in html

    def test_catalog_values_come_from_summary(self, tmp_path):
        """A catalog row shows the value the summary records, read from
        the log alone."""
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_dash_demo_total", "demo counter").inc(7)
        log = tmp_path / "run.jsonl"
        with RunLogWriter(log, meta={"command": "lung"}) as w:
            w.write_step(make_stats(0))
            w.write_summary(metrics=snapshot_doc(reg)["metrics"])
        out = tmp_path / "dash.html"
        write_html_dashboard(log, out)
        html = out.read_text()
        assert ("<td><code>repro_dash_demo_total</code></td>"
                "<td>counter</td><td>–</td>") in html
        row = html[html.index("<code>repro_dash_demo_total</code>"):]
        row = row[:row.index("</tr>")]
        assert '<td class="num">7</td>' in row
        assert "demo counter" in row

    def test_truncated_log_still_renders(self, tmp_path):
        log = write_log(tmp_path / "run.jsonl")
        lines = log.read_text().splitlines()
        # drop the summary and mangle the last step record
        log.write_text("\n".join(lines[:-2] + ["{not json"]) + "\n")
        out = tmp_path / "dash.html"
        with pytest.warns(RuntimeWarning):
            write_html_dashboard(log, out)
        html = out.read_text()
        assert "<svg" in html

    def test_single_step_run_degrades_gracefully(self, tmp_path):
        log = write_log(tmp_path / "run.jsonl", n_steps=1)
        out = tmp_path / "dash.html"
        write_html_dashboard(log, out)
        html = out.read_text()
        # one point cannot make a line: cards say so instead of breaking
        assert "not enough data" in html

    def test_empty_log_raises(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        with pytest.raises(ValueError):
            write_html_dashboard(log, tmp_path / "dash.html")


def _read(log):
    from repro.telemetry import read_run_log

    return read_run_log(log)


class TestTimelineSection:
    def write_distributed_log(self, path):
        from repro.telemetry.timeline import analyze_timeline

        events = []
        for rnd in range(2):
            for rank in range(2):
                t = rnd * 1.0
                for phase, dur in (("pack", 0.01), ("post", 0.002),
                                   ("interior", 0.5 + 0.1 * rank),
                                   ("wait", 0.1), ("cut", 0.05),
                                   ("accumulate", 0.01)):
                    events.append({"rank": rank, "round": rnd,
                                   "phase": phase, "peer": -1,
                                   "t0": t, "t1": t + dur})
                    t += dur
        analysis = analyze_timeline(events)
        with RunLogWriter(path, meta={"command": "lung"}) as w:
            for i in range(2):
                w.write_step(make_stats(i))
            w.write_summary(extra={"timeline": analysis})
        return path

    def test_distributed_summary_renders_timeline_section(self, tmp_path):
        log = self.write_distributed_log(tmp_path / "run.jsonl")
        header, steps, summary = _read(log)
        html = render_html_dashboard(header, steps, summary)
        assert "Distributed timeline" in html
        assert "Wait fraction" in html
        assert "Overlap efficiency" in html or "overlap" in html.lower()

    def test_serial_log_has_no_timeline_section(self, tmp_path):
        log = write_log(tmp_path / "run.jsonl")
        header, steps, summary = _read(log)
        html = render_html_dashboard(header, steps, summary)
        assert "Distributed timeline" not in html


class TestMemberRunDashboard:
    def test_member_log_renders_ventilation_cards(self, tmp_path):
        """A 2-member ``repro lung`` log carries per-member lists for the
        ventilation series: each member gets its own cards."""
        from repro.cli import main

        log = tmp_path / "members.jsonl"
        assert main(["lung", "--steps", "2", "--resistance-scales", "1.0,1.5",
                     "--log-file", str(log)]) == 0
        header, steps, summary = _read(log)
        assert isinstance(steps[0]["inflow_m3_s"], list)
        html = render_html_dashboard(header, steps, summary)
        for e in (0, 1):
            assert f"Inlet flow · member {e}" in html
            assert f"Tidal volume · member {e}" in html


class TestDashboardNumbers:
    def test_tiles_reflect_the_log(self, tmp_path):
        log = write_log(tmp_path / "run.jsonl", n_steps=4)
        header, steps, summary = _read(log)
        html = render_html_dashboard(header, steps, summary)
        assert ">4<" in html  # steps tile
        assert f"{steps[-1]['t']:.3g}" in html or "0.04" in html
