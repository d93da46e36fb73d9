"""Tests of the solver-health metric registry, its JSON snapshot record
and the Prometheus text export."""

import json
import math

import pytest

from repro.telemetry.metrics import (
    METRICS,
    NULL_METRIC,
    MetricRegistry,
    doc_to_prometheus,
    export_metrics,
    load_metrics,
    snapshot_doc,
    to_prometheus,
    write_prometheus,
)


def make_registry(enabled=True):
    reg = MetricRegistry(enabled=enabled)
    reg.counter("repro_solves_total", "total solves").inc(3)
    reg.gauge("repro_residual", "last residual").set(1.5e-7)
    h = reg.histogram("repro_iters", "iterations", buckets=(1, 5, 10))
    for v in (0.5, 3, 3, 7, 42):
        h.observe(v)
    fam = reg.counter("repro_failures_total", "failures",
                      labels=("solve", "reason"))
    fam.labels(("pressure", "none")).inc(2)
    fam.labels(("viscous", "max_iterations")).inc()
    return reg


class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricRegistry(enabled=True)
        c = reg.counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match=">= 0"):
            c.inc(-1)

    def test_gauge_last_write_and_unset(self):
        reg = MetricRegistry(enabled=True)
        g = reg.gauge("g")
        assert g._samples(()) == []  # unset: no sample exported
        g.set(1.0)
        g.set(2.5)
        assert g.value == 2.5

    def test_histogram_le_semantics(self):
        """Bucket i counts observations <= edges[i] (Prometheus le)."""
        reg = MetricRegistry(enabled=True)
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        assert h.counts == [2, 2, 1]  # <=1, <=10, +Inf
        assert h.count == 5 and h.sum == pytest.approx(27.5)

    def test_histogram_drops_nan(self):
        reg = MetricRegistry(enabled=True)
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(float("nan"))
        assert h.count == 0

    def test_histogram_rejects_bad_edges(self):
        reg = MetricRegistry(enabled=True)
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            reg.histogram("h2", buckets=())

    def test_registration_idempotent_and_conflicts_raise(self):
        reg = MetricRegistry()
        a = reg.counter("x_total", "help")
        assert reg.counter("x_total", "other help") is a  # same handle
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x_total", labels=("k",))

    def test_invalid_names_rejected(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError, match="not a valid Prometheus name"):
            reg.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok_total", labels=("bad-label",))

    def test_family_label_arity_checked(self):
        reg = MetricRegistry(enabled=True)
        fam = reg.counter("f_total", labels=("a", "b"))
        with pytest.raises(ValueError, match="expected 2 label"):
            fam.labels(("only-one",))

    def test_family_single_label_accepts_bare_string(self):
        reg = MetricRegistry(enabled=True)
        fam = reg.counter("f_total", labels=("solve",))
        fam.labels("pressure").inc()
        assert fam.labels(("pressure",)).value == 1

    def test_reset_zeros_values_but_keeps_handles(self):
        reg = make_registry()
        c = reg.get("repro_solves_total")
        reg.reset()
        assert c.value == 0
        assert reg.get("repro_solves_total") is c
        c.inc()
        assert c.value == 1

    def test_catalog_records_source_module(self):
        reg = MetricRegistry()
        reg.counter("c_total", "help text", labels=("k",))
        (row,) = reg.catalog()
        assert row["name"] == "c_total"
        assert row["type"] == "counter"
        assert row["labels"] == ["k"]
        assert "test_metrics" in row["source"]

    def test_global_registry_disabled_by_default(self):
        assert METRICS.enabled is False


class TestDisabledFastPath:
    def test_disabled_records_nothing(self):
        reg = make_registry(enabled=False)
        doc = snapshot_doc(reg)
        for m in doc["metrics"]:
            for s in m["samples"]:
                assert s.get("value", 0) == 0 and s.get("count", 0) == 0
        # labeled families create no children at all while disabled
        assert reg.get("repro_failures_total").children == {}

    def test_disabled_family_returns_shared_null_metric(self):
        reg = MetricRegistry(enabled=False)
        fam = reg.counter("f_total", labels=("k",))
        assert fam.labels(("a",)) is NULL_METRIC
        assert fam.labels(("b",)) is NULL_METRIC

    def test_disabled_path_is_allocation_free(self):
        """Acceptance: the disabled-metrics path must not allocate per
        call — the tracemalloc peak of the hot loop may not grow with
        the call count (same discipline as the tracer's NULL_SPAN)."""
        import tracemalloc

        reg = MetricRegistry(enabled=False)
        counter = reg.counter("hot_total")
        gauge = reg.gauge("hot_gauge")
        hist = reg.histogram("hot_hist", buckets=(1.0, 10.0))
        family = reg.counter("hot_fam_total", labels=("solve", "reason"))

        def hot_loop(n):
            for _ in range(n):
                counter.inc()
                gauge.set(1e-9)
                hist.observe(3.0)
                family.labels(("pressure", "none")).inc()

        def peak(n):
            hot_loop(n)  # warm up bytecode caches and method binding
            tracemalloc.start()
            try:
                hot_loop(n)
                _, p = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return p

        small, large = peak(100), peak(10_000)
        assert large <= small + 64, (
            f"disabled metrics allocate per call: peak {small} B at 100 "
            f"calls vs {large} B at 10000 calls"
        )
        assert reg.get("hot_total").value == 0
        assert reg.get("hot_hist").count == 0


class TestPrometheus:
    def test_text_format_structure(self):
        text = to_prometheus(make_registry())
        assert "# HELP repro_solves_total total solves" in text
        assert "# TYPE repro_solves_total counter" in text
        assert "repro_solves_total 3" in text
        assert "repro_residual 1.5e-07" in text
        assert 'repro_iters_bucket{le="1"} 1' in text
        assert 'repro_iters_bucket{le="5"} 3' in text
        assert 'repro_iters_bucket{le="10"} 4' in text
        assert 'repro_iters_bucket{le="+Inf"} 5' in text
        assert "repro_iters_sum 55.5" in text
        assert "repro_iters_count 5" in text
        assert ('repro_failures_total{solve="pressure",reason="none"} 2'
                in text)

    def test_label_values_escaped(self):
        reg = MetricRegistry(enabled=True)
        fam = reg.gauge("g", labels=("level",))
        fam.labels(('DG(k=3) "fine"\nx\\y',)).set(1.0)
        text = to_prometheus(reg)
        assert text.splitlines()[-1] == r'g{level="DG(k=3) \"fine\"\nx\\y"} 1'

    def test_exact_exposition(self):
        """The whole exposition, byte for byte: a counter, a labelled
        family whose label values need escaping, set and unset gauges,
        non-finite values, a histogram, and HELP escaping."""
        reg = make_registry()
        reg.counter("repro_failures_total", "failures",
                    labels=("solve", "reason")).labels(
            ('say "hi"', "back\\slash\nnew line")).inc()
        bad = reg.gauge("repro_bad", "non-finite", labels=("kind",))
        for kind, v in (("nan", math.nan), ("inf", math.inf),
                        ("-inf", -math.inf)):
            bad.labels(kind).set(v)
        reg.gauge("repro_unset", "never written")
        reg.counter("repro_help_total", "a \\ backslash\nand a newline")
        expected = r"""# HELP repro_bad non-finite
# TYPE repro_bad gauge
repro_bad{kind="-inf"} -inf
repro_bad{kind="inf"} inf
repro_bad{kind="nan"} nan
# HELP repro_failures_total failures
# TYPE repro_failures_total counter
repro_failures_total{solve="pressure",reason="none"} 2
repro_failures_total{solve="say \"hi\"",reason="back\\slash\nnew line"} 1
repro_failures_total{solve="viscous",reason="max_iterations"} 1
# HELP repro_help_total a \\ backslash\nand a newline
# TYPE repro_help_total counter
repro_help_total 0
# HELP repro_iters iterations
# TYPE repro_iters histogram
repro_iters_bucket{le="1"} 1
repro_iters_bucket{le="5"} 3
repro_iters_bucket{le="10"} 4
repro_iters_bucket{le="+Inf"} 5
repro_iters_sum 55.5
repro_iters_count 5
# HELP repro_residual last residual
# TYPE repro_residual gauge
repro_residual 1.5e-07
# HELP repro_solves_total total solves
# TYPE repro_solves_total counter
repro_solves_total 3
# HELP repro_unset never written
# TYPE repro_unset gauge
"""
        assert to_prometheus(reg) == expected

    def test_roundtrip_through_exporter_is_stable(self, tmp_path):
        """Exporting the JSON snapshot (``repro metrics export``) gives
        the same bytes as exporting the registry directly."""
        reg = make_registry()
        path = export_metrics(reg, tmp_path / "m.json")
        assert doc_to_prometheus(load_metrics(path)) == to_prometheus(reg)
        prom = write_prometheus(reg, tmp_path / "m.prom")
        assert prom.read_text() == to_prometheus(reg)


class TestSnapshotFiles:
    def test_export_suffix_picks_format(self, tmp_path):
        reg = make_registry()
        prom = export_metrics(reg, tmp_path / "m.prom")
        assert "# TYPE" in prom.read_text()
        js = export_metrics(reg, tmp_path / "m.json", meta={"worker": 1})
        doc = json.loads(js.read_text())
        assert doc["schema"] == "repro/metrics/1"
        assert doc["meta"] == {"worker": 1}

    def test_load_single_doc_and_prom(self, tmp_path):
        """The JSON snapshot loads back exactly; Prometheus text is an
        export only, refused with a message naming what is read."""
        reg = make_registry()
        js = export_metrics(reg, tmp_path / "m.json")
        prom = write_prometheus(reg, tmp_path / "m.prom")
        assert load_metrics(js)["metrics"] == snapshot_doc(reg)["metrics"]
        with pytest.raises(ValueError, match="JSON snapshot .* run log"):
            load_metrics(prom)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "other/9", "metrics": []}\n')
        with pytest.raises(ValueError, match="unsupported metrics schema"):
            load_metrics(path)

    def test_load_run_log_summary_metrics(self, tmp_path):
        """A ``.jsonl`` path is a run log: its summary's metric list."""
        from repro.telemetry import RunLogWriter

        reg = make_registry()
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path, meta={"command": "lung"}) as w:
            w.write_summary(metrics=snapshot_doc(reg)["metrics"])
        doc = load_metrics(path)
        assert doc["metrics"] == snapshot_doc(reg)["metrics"]
        assert doc["meta"] == {"command": "lung"}

    def test_load_run_log_without_metrics_raises(self, tmp_path):
        from repro.telemetry import RunLogWriter

        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as w:
            w.write_summary()
        with pytest.raises(ValueError, match="no summary metrics"):
            load_metrics(path)


class TestDefaultBuckets:
    def test_reduction_buckets_cover_unit_interval(self):
        from repro.telemetry.metrics import REDUCTION_BUCKETS

        assert REDUCTION_BUCKETS[0] <= 1e-4
        assert REDUCTION_BUCKETS[-1] == 1.0
        assert list(REDUCTION_BUCKETS) == sorted(REDUCTION_BUCKETS)

    def test_iteration_buckets_are_increasing(self):
        from repro.telemetry.metrics import ITERATION_BUCKETS

        assert list(ITERATION_BUCKETS) == sorted(ITERATION_BUCKETS)
        assert not math.isinf(ITERATION_BUCKETS[-1])
