"""Tests of the solver-health metric registry, exporters, and the
cross-process aggregator."""

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
    merge_snapshots,
    parse_prometheus,
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
        assert '\\"fine\\"' in text and "\\n" in text and "\\\\y" in text
        doc = parse_prometheus(text)
        assert doc["metrics"][0]["samples"][0]["labels"] == [
            'DG(k=3) "fine"\nx\\y'
        ]

    def _doc_by_name(self, doc):
        out = {}
        for m in doc["metrics"]:
            samples = {}
            for s in m["samples"]:
                key = frozenset(zip(m["labels"], s["labels"]))
                samples[key] = {k: v for k, v in s.items() if k != "labels"}
            out[m["name"]] = {
                "type": m["type"],
                "help": m["help"],
                "buckets": m.get("buckets"),
                "samples": samples,
            }
        return out

    def test_roundtrip(self, tmp_path):
        """Acceptance: parse_prometheus(write_prometheus(reg)) recovers
        the snapshot document (modulo meta/source and label ordering —
        compared as label-name -> value mappings)."""
        reg = make_registry()
        path = write_prometheus(reg, tmp_path / "m.prom")
        parsed = parse_prometheus(path.read_text())
        assert self._doc_by_name(parsed) == self._doc_by_name(
            snapshot_doc(reg)
        )

    def test_roundtrip_through_exporter_is_stable(self, tmp_path):
        """After one parse normalization (label names come back
        sorted), render -> parse is a fixed point."""
        reg = make_registry()
        doc1 = parse_prometheus(to_prometheus(reg))
        assert parse_prometheus(doc_to_prometheus(doc1)) == doc1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a Prometheus sample"):
            parse_prometheus("this is not a metric line\n")


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
        reg = make_registry()
        js = export_metrics(reg, tmp_path / "m.json")
        prom = write_prometheus(reg, tmp_path / "m.prom")
        assert load_metrics(js)["metrics"] == snapshot_doc(reg)["metrics"]
        assert load_metrics(prom)["metrics"]  # parsed back through .prom

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


class TestMerge:
    def worker(self, solves, residual, iters, failures=()):
        reg = MetricRegistry(enabled=True)
        reg.counter("repro_solves_total").inc(solves)
        reg.gauge("repro_residual").set(residual)
        h = reg.histogram("repro_iters", buckets=(1, 5, 10))
        for v in iters:
            h.observe(v)
        fam = reg.counter("repro_failures_total", labels=("reason",))
        for reason in failures:
            fam.labels((reason,)).inc()
        return snapshot_doc(reg)

    def test_counters_sum_gauges_last_write_buckets_merge(self):
        """Acceptance: the aggregator sums counters per label tuple,
        keeps the last gauge write, and merges histogram buckets
        element-wise."""
        a = self.worker(3, 1e-6, (0.5, 3), failures=("nan", "nan"))
        b = self.worker(4, 2e-8, (7, 42), failures=("max_iterations",))
        doc = merge_snapshots([a, b])
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["repro_solves_total"]["samples"][0]["value"] == 7
        assert by_name["repro_residual"]["samples"][0]["value"] == 2e-8
        h = by_name["repro_iters"]["samples"][0]
        assert h["counts"] == [1, 1, 1, 1]
        assert h["count"] == 4 and h["sum"] == pytest.approx(52.5)
        failures = {
            tuple(s["labels"]): s["value"]
            for s in by_name["repro_failures_total"]["samples"]
        }
        assert failures == {("max_iterations",): 1, ("nan",): 2}
        assert doc["meta"]["aggregated_workers"] == 2

    def test_merge_is_associative(self):
        """Acceptance: (a + b) + c == a + (b + c) — the property that
        makes tree-shaped reductions over many workers legal.  Gauges
        keep document order under both groupings because merge output
        preserves the last-write value."""
        a = self.worker(1, 1.0, (0.5,), failures=("nan",))
        b = self.worker(2, 2.0, (3,))
        c = self.worker(3, 3.0, (7, 42), failures=("nan", "stall"))

        def strip_meta(doc):
            return doc["metrics"]

        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        flat = merge_snapshots([a, b, c])
        assert strip_meta(left) == strip_meta(right) == strip_meta(flat)

    def test_merge_rejects_mismatched_buckets(self):
        reg1 = MetricRegistry(enabled=True)
        reg1.histogram("h", buckets=(1, 2)).observe(1)
        reg2 = MetricRegistry(enabled=True)
        reg2.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError, match="bucket edges differ"):
            merge_snapshots([snapshot_doc(reg1), snapshot_doc(reg2)])

    def test_merge_rejects_conflicting_types(self):
        reg1 = MetricRegistry(enabled=True)
        reg1.counter("x").inc()
        reg2 = MetricRegistry(enabled=True)
        reg2.gauge("x").set(1)
        with pytest.raises(ValueError, match="conflicting type"):
            merge_snapshots([snapshot_doc(reg1), snapshot_doc(reg2)])

    def test_merged_doc_survives_prometheus_roundtrip(self):
        a = self.worker(3, 1e-6, (0.5, 3))
        b = self.worker(4, 2e-8, (7,))
        doc = merge_snapshots([a, b])
        parsed = parse_prometheus(doc_to_prometheus(doc))
        assert parse_prometheus(doc_to_prometheus(parsed)) == parsed


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
