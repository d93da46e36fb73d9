"""Tests of the hierarchical span tracer: nesting, timing, work
annotations, and the disabled-mode no-op fast path."""

import time

import pytest

from repro.telemetry import NULL_SPAN, TRACER, Tracer


class TestSpans:
    def test_nested_span_timing(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            time.sleep(0.02)
            with tr.span("inner"):
                time.sleep(0.03)
        outer = tr.find("outer")
        inner = tr.find("outer", "inner")
        assert outer is not None and inner is not None
        assert outer.count == 1 and inner.count == 1
        assert inner.total >= 0.03
        assert outer.total >= inner.total + 0.02
        # exclusive = inclusive minus children
        assert outer.exclusive == pytest.approx(outer.total - inner.total)
        assert outer.exclusive >= 0.02
        assert inner.exclusive == inner.total

    def test_repeated_spans_accumulate(self):
        tr = Tracer(enabled=True)
        for _ in range(5):
            with tr.span("a"):
                with tr.span("b"):
                    pass
        assert tr.find("a").count == 5
        assert tr.find("a", "b").count == 5

    def test_same_name_different_parents_are_distinct(self):
        tr = Tracer(enabled=True)
        with tr.span("p1"):
            with tr.span("x"):
                pass
        with tr.span("p2"):
            with tr.span("x"):
                pass
        assert tr.find("p1", "x").count == 1
        assert tr.find("p2", "x").count == 1
        assert tr.find("x") is None

    def test_span_handle_reports_elapsed(self):
        tr = Tracer(enabled=True)
        with tr.span("s") as sp:
            time.sleep(0.01)
        assert sp.elapsed >= 0.01
        assert tr.find("s").total == pytest.approx(sp.elapsed)

    def test_recursion_nests(self):
        tr = Tracer(enabled=True)

        def rec(depth):
            if depth == 0:
                return
            with tr.span(f"d{depth}"):
                rec(depth - 1)

        rec(3)
        assert tr.find("d3", "d2", "d1") is not None

    def test_walk_and_snapshot(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            with tr.span("b"):
                pass
        depths = [d for d, _ in tr.find("a").walk()]
        assert depths == [0, 1]
        snap = tr.snapshot()
        assert "a" in snap["spans"]
        assert "b" in snap["spans"]["a"]["children"]
        assert snap["spans"]["a"]["count"] == 1

    def test_reset_clears_everything(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        tr.reset()
        assert tr.root.children == {}
        assert tr.snapshot() == {"spans": {}}
        assert tr.enabled  # reset keeps the enabled flag

    def test_public_surface_is_spans_only(self):
        """The tracer times regions; every count lives in METRICS."""
        public = {n for n in dir(Tracer()) if not n.startswith("_")}
        assert public == {"enabled", "root", "span", "annotate", "find",
                          "snapshot", "enable", "disable", "reset"}


class TestWorkAnnotations:
    def test_annotate_attaches_to_open_span(self):
        tr = Tracer(enabled=True)
        with tr.span("vmult"):
            tr.annotate(flops=100.0, bytes=50.0, dofs=10.0)
        node = tr.find("vmult")
        assert node.has_work
        assert (node.flops, node.bytes, node.dofs) == (100.0, 50.0, 10.0)

    def test_repeat_visits_accumulate_work(self):
        tr = Tracer(enabled=True)
        for _ in range(3):
            with tr.span("vmult"):
                tr.annotate(flops=10.0, bytes=5.0, dofs=1.0)
        node = tr.find("vmult")
        assert node.count == 3
        assert node.flops == 30.0 and node.bytes == 15.0 and node.dofs == 3.0

    def test_own_work_convention(self):
        """A parent's annotation excludes what instrumented children
        annotate; subtree_work recovers the inclusive total."""
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            tr.annotate(flops=5.0)
            with tr.span("inner"):
                tr.annotate(flops=20.0)
        assert tr.find("outer").flops == 5.0
        assert tr.find("outer", "inner").flops == 20.0
        assert tr.find("outer").subtree_work() == (25.0, 0.0, 0.0)

    def test_workless_span_has_no_work(self):
        tr = Tracer(enabled=True)
        with tr.span("idle"):
            pass
        assert not tr.find("idle").has_work

    def test_work_survives_snapshot_roundtrip(self):
        from repro.telemetry import SpanNode

        tr = Tracer(enabled=True)
        with tr.span("a"):
            tr.annotate(flops=1.0, bytes=2.0, dofs=3.0)
            with tr.span("b"):
                pass
        snap = tr.snapshot()
        d = snap["spans"]["a"]
        assert d["work"] == {"flops": 1.0, "bytes": 2.0, "dofs": 3.0}
        assert "work" not in d["children"]["b"]
        node = SpanNode.from_dict("a", d)
        assert node.flops == 1.0 and node.bytes == 2.0 and node.dofs == 3.0
        assert node.subtree_work() == (1.0, 2.0, 3.0)

    def test_annotate_disabled_is_noop(self):
        tr = Tracer(enabled=False)
        with tr.span("a"):
            tr.annotate(flops=1e9, bytes=1e9, dofs=1e6)
        assert tr.root.children == {}


class TestDisabledMode:
    def test_disabled_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("a"):
            with tr.span("b"):
                pass
        assert tr.root.children == {}
        assert tr.snapshot() == {"spans": {}}

    def test_disabled_span_is_shared_noop(self):
        tr = Tracer(enabled=False)
        assert tr.span("a") is NULL_SPAN
        assert tr.span("b") is NULL_SPAN
        assert NULL_SPAN.elapsed == 0.0

    def test_disabled_overhead_is_small(self):
        """The no-op fast path must be cheap enough to leave in hot
        paths: well under a microsecond per call on any machine."""
        tr = Tracer(enabled=False)
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("hot"):
                pass
            tr.annotate(flops=1.0)
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6  # generous bound for slow CI machines

    def test_global_tracer_disabled_by_default(self):
        assert TRACER.enabled is False

    def test_disabled_span_and_annotate_allocate_nothing(self):
        """Acceptance: with tracing off, per-call span metadata
        allocation is zero — the allocation peak of the hot loop must
        not grow with the number of calls (the shared ``NULL_SPAN`` and
        early returns build no spans, dicts, or work records)."""
        import tracemalloc

        tr = Tracer(enabled=False)

        def hot_loop(n):
            for _ in range(n):
                with tr.span("kernel"):
                    tr.annotate(flops=1.0, bytes=2.0, dofs=3.0)

        def peak(n):
            hot_loop(n)  # warm up: bytecode caches, method binding
            tracemalloc.start()
            try:
                hot_loop(n)
                _, p = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return p

        small, large = peak(100), peak(10_000)
        # 100x the calls may not move the peak (the +-few-bytes jitter is
        # the boxed loop counter, not the tracer: any real per-call span
        # object would add >= 56 B x 10000 calls here)
        assert large <= small + 64, (
            f"disabled tracer allocates per call: peak {small} B at 100 "
            f"calls vs {large} B at 10000 calls"
        )
        assert large < 1024
        assert tr.root.children == {}
