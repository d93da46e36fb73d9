"""Tests of the command-line interface."""

import json
import math

import pytest

from repro.cli import main


class TestCLI:
    def test_poisson(self, capsys):
        assert main(["poisson", "--refinements", "1", "--degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out

    def test_mesh_with_vtk(self, tmp_path, capsys):
        vtk = tmp_path / "tree.vtk"
        assert main(["mesh", "--generations", "2", "--vtk", str(vtk)]) == 0
        assert vtk.exists()
        out = capsys.readouterr().out
        assert "airway tree: 7 airways" in out

    def test_scaling(self, capsys):
        assert main(["scaling", "--dofs", "22e6"]) == 0
        out = capsys.readouterr().out
        assert "strong scaling" in out
        assert "GDoF/s" in out

    def test_lung_short_run(self, capsys):
        assert main(["lung", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "lung g=1" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_poisson_json(self, capsys):
        assert main(["poisson", "--refinements", "1", "--degree", "2",
                     "--json"]) == 0
        out = capsys.readouterr().out
        rec = json.loads(out)  # the whole output is one JSON object
        assert rec["command"] == "poisson"
        assert rec["converged"] is True
        assert rec["n_iterations"] == len(rec["residuals"]) - 1
        assert 0.0 < rec["reduction_rate"] < 1.0

    def test_calibrate_json(self, capsys):
        assert main(["calibrate", "--degree", "2", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "calibrate"
        assert rec["matvec_dofs_per_s_k3"] > 0


class TestTelemetryCLI:
    def test_lung_trace_and_log_file(self, tmp_path, capsys):
        from repro.telemetry import METRICS, TRACER, read_run_log

        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "3", "--trace",
                     "--log-file", str(log)]) == 0
        out = capsys.readouterr().out
        assert "wall time per time step" in out
        assert "pressure_poisson" in out
        assert "span profile:" in out
        assert "vmult[DGLaplaceOperator]" in out
        assert "metrics:" in out and "repro_cg_solves_total" in out
        # the command restores the global state
        assert not TRACER.enabled and not METRICS.enabled

        header, steps, summary = read_run_log(log)
        assert header["schema"] == "repro-runlog/2"
        assert header["command"] == "lung"
        assert len(steps) == 3  # one schema-valid record per time step
        for rec in steps:
            assert rec["dt"] > 0 and rec["wall_time_s"] > 0
            assert set(rec["iterations"]) == {"pressure", "viscous", "penalty"}
            # sub-step times account for the step wall time (within 10%)
            assert math.fsum(rec["substeps_s"].values()) == pytest.approx(
                rec["wall_time_s"], rel=0.1
            )
        assert summary["n_steps"] == 3
        assert "counters" not in summary and "gauges" not in summary
        (solves,) = [m for m in summary["metrics"]
                     if m["name"] == "repro_cg_solves_total"]
        by_site = {tuple(s["labels"]): s["value"] for s in solves["samples"]}
        assert by_site[("pressure",)] == 3

    def test_traced_steps_equal_untraced(self, tmp_path, capsys):
        """Telemetry observes and never steers: the step records of a
        traced run equal an untraced run's bit for bit."""
        from repro.telemetry import read_run_log

        keys = ("t", "dt", "iterations", "inflow_m3_s", "tidal_volume_ml")
        runs = []
        for flags in ([], ["--trace"]):
            log = tmp_path / f"run{len(flags)}.jsonl"
            assert main(["lung", "--steps", "3", *flags,
                         "--log-file", str(log)]) == 0
            _, steps, _ = read_run_log(log)
            runs.append([{k: s[k] for k in keys} for s in steps])
        assert runs[0] == runs[1]

    def test_lung_log_file_without_trace(self, tmp_path, capsys):
        from repro.telemetry import read_run_log

        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--log-file", str(log)]) == 0
        _, steps, _ = read_run_log(log)
        assert len(steps) == 2
        # without --trace the per-sub-step profile is not collected
        assert steps[0]["substeps_s"] == {}
        assert steps[0]["wall_time_s"] > 0

    def test_report_aggregates_run_log(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "3", "--trace",
                     "--log-file", str(log)]) == 0
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "wall time per time step (3 steps" in out
        assert "pressure_poisson" in out and "iters/solve" in out
        assert "metrics:" in out and "repro_cg_solves_total" in out

    def test_report_synthetic_log(self, tmp_path, capsys):
        from repro.telemetry import SCHEMA

        log = tmp_path / "synthetic.jsonl"
        records = [{"type": "header", "schema": SCHEMA, "command": "x"}]
        for i in range(2):
            records.append({
                "type": "step", "step": i, "t": 0.1 * (i + 1), "dt": 0.1,
                "cfl": 0.5, "wall_time_s": 1.0,
                "iterations": {"pressure": 10, "viscous": 2, "penalty": 4},
                "substeps_s": {"pressure_poisson": 0.6, "helmholtz": 0.4},
            })
        log.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "2 steps" in out
        assert "60.0%" in out  # pressure Poisson share
        assert "10.0" in out  # mean pressure iterations

    def test_report_rejects_empty_log(self, tmp_path, capsys):
        from repro.telemetry import SCHEMA

        log = tmp_path / "empty.jsonl"
        log.write_text(json.dumps({"type": "header", "schema": SCHEMA}) + "\n")
        assert main(["report", str(log)]) == 1


class TestTraceCLI:
    """``repro trace``: offline analysis of a --trace-timeline file."""

    def write_trace(self, path, meta=None):
        from repro.telemetry import write_chrome_trace

        events = []
        for rank in range(2):
            t = 0.0
            for phase, dur in (("pack", 0.01), ("post", 0.002),
                               ("interior", 0.5 + 0.1 * rank),
                               ("wait", 0.2 - 0.1 * rank),
                               ("cut", 0.05), ("accumulate", 0.01)):
                events.append({"rank": rank, "round": 0, "phase": phase,
                               "peer": -1, "t0": t, "t1": t + dur})
                t += dur
        return write_chrome_trace(path, events, meta=meta)

    def test_trace_text_report(self, tmp_path, capsys):
        path = self.write_trace(
            tmp_path / "t.json",
            meta={"rank_exchange_bytes": {"0": {"send": 800, "recv": 800},
                                          "1": {"send": 800, "recv": 800}}},
        )
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "distributed timeline: 2 ranks, 1 rounds" in out
        assert "overlap efficiency" in out
        assert "ghost_exchange[rank0]" in out  # bandwidth attribution

    def test_trace_json_reproduces_analysis(self, tmp_path, capsys):
        from repro.telemetry import analyze_timeline, load_chrome_trace

        path = self.write_trace(tmp_path / "t.json")
        assert main(["trace", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/timeline/1"
        events, _ = load_chrome_trace(path)
        # the CLI reproduces the library analysis exactly
        assert doc == json.loads(json.dumps(analyze_timeline(events)))

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_rejects_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace", str(path)]) == 1
        assert "no timeline events" in capsys.readouterr().err

    def test_poisson_trace_requires_workers(self, capsys):
        assert main(["poisson", "--refinements", "1",
                     "--trace-timeline", "/tmp/t.json"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_lung_trace_without_workers_warns(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["lung", "--steps", "1",
                     "--trace-timeline", str(trace)]) == 0
        assert "needs --workers" in capsys.readouterr().err
        assert not trace.exists()


class TestRunConfigCLI:
    def test_lung_config_round_trip(self, tmp_path, capsys):
        """A config written by RunConfig.to_json drives the lung command
        through RunConfig.from_args unchanged."""
        from repro.robustness import RunConfig

        cfg = RunConfig(generations=1, degree=2, seed=7)
        path = tmp_path / "run.json"
        path.write_text(cfg.to_json(indent=2))
        assert main(["lung", "--steps", "1", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lung g=1" in out

    def test_lung_config_flag_overrides(self, tmp_path, capsys):
        from repro.robustness import RunConfig

        path = tmp_path / "run.json"
        path.write_text(RunConfig(generations=2, degree=2).to_json())
        assert main(["lung", "--steps", "1", "--config", str(path),
                     "--generations", "1"]) == 0
        assert "lung g=1" in capsys.readouterr().out

    def test_lung_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such_key": 1}))
        assert main(["lung", "--steps", "1", "--config", str(path)]) == 2


class TestEnsembleCLI:
    """Member runs: the sweep flags of ``repro lung``."""

    def test_ensemble_sweep_run(self, capsys):
        assert main(["lung", "--steps", "2",
                     "--resistance-scales", "1.0,1.5"]) == 0
        out = capsys.readouterr().out
        assert "2 members" in out
        assert "R-scale" in out  # per-member summary table

    def test_members_flag_replicates_base(self, capsys):
        assert main(["lung", "--steps", "1", "--members", "3"]) == 0
        assert "3 members" in capsys.readouterr().out

    def test_mismatched_sweep_lengths_rejected(self, capsys):
        assert main(["lung", "--steps", "1", "--members", "2",
                     "--dp-initials", "800,900,1000"]) == 2
        assert "need 1 or 2" in capsys.readouterr().err

    def test_ensemble_log_file(self, tmp_path, capsys):
        from repro.telemetry import read_run_log

        log = tmp_path / "ens.jsonl"
        assert main(["lung", "--steps", "2", "--members", "2",
                     "--log-file", str(log)]) == 0
        header, steps, summary = read_run_log(log)
        assert header["command"] == "lung"
        assert header["members"] == 2
        assert len(steps) == 2
        assert len(steps[0]["member_cfl"]) == 2
        assert len(steps[0]["inflow_m3_s"]) == 2

    def test_ensemble_subcommand_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--steps", "1"])
        assert exc.value.code == 2

    def test_single_run_logs_scalars_per_member_keys(self, tmp_path, capsys):
        from repro.telemetry import read_run_log

        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "1", "--log-file", str(log)]) == 0
        header, steps, _ = read_run_log(log)
        assert header["members"] == 1
        rec = steps[0]
        assert isinstance(rec["inflow_m3_s"], float)
        assert rec["member_cfl"] == rec["cfl"]
        assert rec["member_pressure_iterations"] == rec["iterations"]["pressure"]


class TestVerifyCLI:
    def test_spatial_ladder_table(self, capsys):
        assert main(["verify", "--ladder", "spatial", "--degrees", "2",
                     "--levels", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "| study | parameter | expected | fitted | status |" in out
        assert "poisson_dg_k2" in out
        assert "pass" in out

    def test_spatial_ladder_json_and_artifacts(self, tmp_path, capsys):
        md = tmp_path / "rates.md"
        log = tmp_path / "rates.jsonl"
        assert main(["verify", "--ladder", "spatial", "--degrees", "2",
                     "--levels", "1,2", "--json",
                     "--markdown", str(md), "--log-file", str(log)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out.splitlines()[0])
        assert doc["all_passed"] is True
        assert doc["studies"][0]["name"] == "poisson_dg_k2"
        assert doc["studies"][0]["fitted_rate"] > 2.6
        assert "poisson_dg_k2" in md.read_text()
        records = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert records[0]["type"] == "header"
        assert records[-1]["type"] == "summary"
        assert records[-1]["all_passed"] is True

    def test_golden_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--golden",
                     str(tmp_path / "nope.json")]) == 2

    @pytest.mark.slow
    def test_golden_update_then_check_round_trip(self, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        assert main(["verify", "--golden", str(golden),
                     "--update-golden"]) == 0
        assert golden.exists()
        capsys.readouterr()
        assert main(["verify", "--golden", str(golden)]) == 0
        assert "golden regression passed" in capsys.readouterr().out

    @pytest.mark.slow
    def test_golden_detects_drift(self, tmp_path, capsys):
        from repro.verification import compute_golden_metrics, write_golden

        metrics = compute_golden_metrics()
        metrics["poisson_k2_l1_error_l2"]["value"] *= 1.5
        golden = tmp_path / "golden.json"
        write_golden(golden, metrics)
        assert main(["verify", "--golden", str(golden)]) == 1
        out = capsys.readouterr().out
        assert "golden regression FAILED" in out
        assert "poisson_k2_l1_error_l2" in out


class TestObservabilityCLI:
    def test_machine_names_match_registry(self):
        """The parser's literal machine list (kept import-light) must
        track the attribution registry."""
        from repro.cli import _MACHINE_NAMES
        from repro.perf.attribution import MACHINES

        assert sorted(_MACHINE_NAMES) == sorted(MACHINES)

    @pytest.mark.slow
    def test_roofline_json_reports_rates_per_kernel(self, capsys):
        """Acceptance: achieved GFlop/s, GB/s, and %-of-model per
        instrumented kernel, covering the DG Laplace vmult and a full
        lung step."""
        assert main(["roofline", "--json", "--refinements", "0",
                     "--repetitions", "2", "--steps", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro/roofline/1"
        assert doc["machine"]["name"]
        kernels = {k["name"]: k for k in doc["kernels"]}
        assert "vmult[DGLaplaceOperator]" in kernels
        for k in kernels.values():
            for field in ("gflops_per_s", "gbytes_per_s", "intensity",
                          "fraction_of_model"):
                assert field in k
        substeps = {s["name"]: s for s in doc["substeps"]}
        step = substeps["step"]  # the full lung time step
        assert step["flops"] > 0 and step["bytes"] > 0
        assert 0.0 < step["fraction_of_model"] < 1.0
        lap = kernels["vmult[DGLaplaceOperator]"]
        assert lap["gflops_per_s"] > 0
        assert lap["calls"] >= 2

    @pytest.mark.slow
    def test_roofline_from_traced_log(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--trace",
                     "--log-file", str(log)]) == 0
        capsys.readouterr()
        assert main(["roofline", "--from-log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "roofline attribution" in out
        assert "vmult[DGLaplaceOperator]" in out
        assert "%model" in out

    def test_roofline_from_untraced_log_fails(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "1", "--log-file", str(log)]) == 0
        capsys.readouterr()
        assert main(["roofline", "--from-log", str(log)]) == 1
        assert "no traced summary" in capsys.readouterr().err

    @pytest.mark.slow
    def test_report_includes_roofline_and_robustness(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--trace",
                     "--log-file", str(log)]) == 0
        capsys.readouterr()
        assert main(["report", str(log), "--machine", "supermuc-ng"]) == 0
        out = capsys.readouterr().out
        assert "roofline attribution" in out
        assert "vmult[DGLaplaceOperator]" in out
        assert "robustness:" in out

    def test_bench_list_suites(self, capsys):
        assert main(["bench", "--list-suites"]) == 0
        out = capsys.readouterr().out.split()
        assert "ops" in out and "vmult" in out

    @pytest.mark.slow
    def test_bench_smoke_writes_document_and_compares(self, tmp_path, capsys):
        out_json = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--degree", "2",
                     "--cases", "dg_laplace_vmult",
                     "--output", str(out_json)]) == 0
        text = capsys.readouterr().out
        assert "benchmark document written" in text
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro/bench/2"
        assert doc["fingerprint"]["git_sha"]
        assert doc["cases"][0]["throughput"] > 0

        # identical baseline passes
        assert main(["bench", "--input", str(out_json),
                     "--compare", str(out_json)]) == 0
        capsys.readouterr()

        # artificially inflated baseline must fail the gate ...
        inflated = json.loads(out_json.read_text())
        for c in inflated["cases"]:
            c["throughput"] *= 10.0
        base = tmp_path / "inflated.json"
        base.write_text(json.dumps(inflated))
        assert main(["bench", "--input", str(out_json),
                     "--compare", str(base)]) == 1
        assert "FAIL" in capsys.readouterr().out
        # ... unless --warn-only downgrades it for shared CI runners
        assert main(["bench", "--input", str(out_json),
                     "--compare", str(base), "--warn-only"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_bench_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_bench_missing_baseline_is_usage_error(self, tmp_path, capsys):
        doc = {"schema": "repro/bench/2", "suite": "ops", "cases": []}
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert main(["bench", "--input", str(p),
                     "--compare", str(tmp_path / "nope.json")]) == 2

    def test_monitor_running_and_finished(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--log-file", str(log)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(log)]) == 0
        out = capsys.readouterr().out
        assert "steps: 2/2" in out
        assert "step rate" in out
        assert "status: finished" in out

    def test_monitor_missing_file(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().out


class TestMetricsCLI:
    def test_lung_metrics_file_round_trips(self, tmp_path, capsys):
        """Acceptance: ``repro lung --metrics-file out.json`` writes the
        run's metric list as a JSON snapshot that loads back."""
        from repro.telemetry import METRICS
        from repro.telemetry.metrics import load_metrics

        path = tmp_path / "out.json"
        assert main(["lung", "--steps", "2",
                     "--metrics-file", str(path)]) == 0
        assert "metrics written to" in capsys.readouterr().out
        doc = load_metrics(path)
        names = {m["name"] for m in doc["metrics"]}
        assert "repro_steps_total" in names
        assert "repro_cg_solves_total" in names
        assert "repro_cfl_realized" in names
        assert "repro_windkessel_flow_m3_per_s" in names
        # one coupling-gauge family: a single run is member "0"
        wk = {m["name"]: m for m in doc["metrics"]}[
            "repro_windkessel_flow_m3_per_s"]
        assert wk["labels"] == ["member", "outlet"]
        assert {s["labels"][0] for s in wk["samples"]} == {"0"}
        assert "repro_member_cfl" in names
        assert not any(n.startswith("repro_ensemble_") for n in names)
        by_name = {m["name"]: m for m in doc["metrics"]}
        steps = by_name["repro_steps_total"]["samples"][0]["value"]
        assert steps == 2
        # every cg solve carries an outcome label
        reasons = by_name["repro_cg_failure_reason_total"]["samples"]
        solves = by_name["repro_cg_solves_total"]["samples"]
        assert sum(s["value"] for s in reasons) == sum(
            s["value"] for s in solves)
        # the session left the global registry off for the next command
        assert not METRICS.enabled

    def test_metrics_render_snapshot(self, tmp_path, capsys):
        """``repro metrics render`` tabulates one JSON snapshot."""
        from repro.telemetry import METRICS
        from repro.telemetry.metrics import export_metrics

        METRICS.reset()
        METRICS.enable()
        try:
            METRICS.counter("repro_demo_total", "demo").inc(3)
            export_metrics(METRICS, tmp_path / "w.json")
        finally:
            METRICS.disable()
            METRICS.reset()
        assert main(["metrics", "render", str(tmp_path / "w.json")]) == 0
        row = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("repro_demo_total")]
        assert len(row) == 1 and row[0].split()[-1] == "3"

    def test_metrics_render_refuses_prometheus_text(self, tmp_path, capsys):
        """Prometheus text is an export only: reading one back is a
        usage error that names the accepted inputs."""
        from repro.telemetry import METRICS
        from repro.telemetry.metrics import export_metrics

        METRICS.reset()
        METRICS.enable()
        try:
            METRICS.counter("repro_demo_total", "demo").inc(3)
            prom = export_metrics(METRICS, tmp_path / "w.prom")
        finally:
            METRICS.disable()
            METRICS.reset()
        assert main(["metrics", "render", str(prom)]) == 2
        err = capsys.readouterr().err
        assert "JSON snapshot" in err and ".jsonl run log" in err

    def test_metrics_export_to_prometheus(self, tmp_path, capsys):
        from repro.telemetry import METRICS
        from repro.telemetry.metrics import export_metrics

        METRICS.reset()
        METRICS.enable()
        try:
            METRICS.gauge("repro_demo", "demo").set(1.5)
            export_metrics(METRICS, tmp_path / "w.json")
        finally:
            METRICS.disable()
            METRICS.reset()
        prom = tmp_path / "w.prom"
        assert main(["metrics", "export", str(tmp_path / "w.json"),
                     "--output", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_demo gauge" in text
        assert "repro_demo 1.5" in text

    def test_metrics_render_reads_run_log(self, tmp_path, capsys):
        """``repro metrics`` reads the metric list a run log's summary
        carries; a run without metrics is a usage error."""
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "1", "--trace",
                     "--log-file", str(log)]) == 0
        capsys.readouterr()
        assert main(["metrics", "render", str(log)]) == 0
        assert "repro_cg_solves_total" in capsys.readouterr().out
        bare = tmp_path / "bare.jsonl"
        assert main(["lung", "--steps", "1", "--log-file", str(bare)]) == 0
        capsys.readouterr()
        assert main(["metrics", "render", str(bare)]) == 2
        assert "no summary metrics" in capsys.readouterr().err

    def test_metrics_rejects_missing_file(self, tmp_path, capsys):
        assert main(["metrics", "render", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_report_html_dashboard(self, tmp_path, capsys):
        """Acceptance: ``repro report --html`` writes one self-contained
        HTML file whose metric catalog carries the traced run's own
        values, read from the log's summary."""
        from repro.telemetry import read_run_log

        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--trace",
                     "--log-file", str(log)]) == 0
        out_html = tmp_path / "dash.html"
        assert main(["report", "--html", str(log), "--output",
                     str(out_html)]) == 0
        assert "dashboard written to" in capsys.readouterr().out
        html = out_html.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html
        _, _, summary = read_run_log(log)
        solves = [s["value"] for m in summary["metrics"]
                  if m["name"] == "repro_cg_solves_total"
                  for s in m["samples"]]
        assert sum(solves) > 0
        row = html[html.index("<code>repro_cg_solves_total</code>"):]
        row = row[:row.index("</tr>")]
        assert (f'<td class="num">{sum(solves):.0f} '
                f'({len(solves)} series)</td>') in row

    def test_report_html_default_output_path(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["lung", "--steps", "2", "--log-file", str(log)]) == 0
        assert main(["report", "--html", str(log)]) == 0
        capsys.readouterr()
        assert (tmp_path / "run.jsonl.html").exists()
