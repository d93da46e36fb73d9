"""Tests of the throughput measurement harness."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.perf import measure
from repro.perf.measure import ThroughputResult, measure_operator, measure_throughput


class TestMeasureThroughput:
    def test_best_of_n_semantics(self):
        calls = []

        def fn():
            # first timed call is slow, later ones fast: best must win
            time.sleep(0.02 if len(calls) < 3 else 0.001)
            calls.append(1)

        r = measure_throughput(fn, n_dofs=1000, repetitions=6, warmup=1,
                               track_allocations=False)
        assert r.repetitions == 6
        assert len(calls) == 7  # warmup + 6
        assert r.best_seconds <= r.mean_seconds
        assert r.best_seconds < 0.015

    def test_dofs_per_second(self):
        r = ThroughputResult("x", n_dofs=100, best_seconds=0.01,
                             mean_seconds=0.02, repetitions=3)
        assert r.dofs_per_second == pytest.approx(1e4)
        assert "DoF/s" in str(r)

    def test_reports_sample_std(self, monkeypatch):
        """Best, mean and sample std (ddof=1) of scripted ``perf_counter``
        stamps, exactly: samples 1, 0.5, 0.75, 0.5 and 1 s have mean
        0.75 s and std 0.25 s, all exact in binary."""
        stamps = iter([10.0, 11.0, 20.0, 20.5, 30.0, 30.75, 40.0, 40.5, 50.0, 51.0])
        monkeypatch.setattr(measure, "time", SimpleNamespace(perf_counter=lambda: next(stamps)))
        r = measure_throughput(lambda: None, n_dofs=10, repetitions=5, warmup=0,
                               track_allocations=False)
        assert (r.best_seconds, r.mean_seconds, r.std_seconds) == (0.5, 0.75, 0.25)
        assert next(stamps, None) is None  # two stamps per repetition, no more

    def test_single_repetition_has_zero_std(self):
        r = measure_throughput(lambda: None, n_dofs=1, repetitions=1, warmup=0)
        assert r.std_seconds == 0.0

    def test_gc_disabled_during_samples_and_restored(self):
        import gc

        states = []
        r = measure_throughput(lambda: states.append(gc.isenabled()),
                               n_dofs=1, repetitions=3, warmup=1)
        # warmup runs with GC on, timed samples with GC off, and the
        # allocation sample runs after timing with GC restored
        assert states == [True, False, False, False, True]
        assert gc.isenabled()
        assert r.repetitions == 3

    def test_gc_stays_disabled_if_it_was(self):
        import gc

        gc.disable()
        try:
            measure_throughput(lambda: None, n_dofs=1, repetitions=2, warmup=0)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_allocation_tracking_populates_fields(self):
        def fn():
            np.zeros(1 << 16)  # 512 KB transient

        r = measure_throughput(fn, n_dofs=10, repetitions=2, warmup=0)
        assert r.alloc_peak_bytes is not None
        assert r.alloc_peak_bytes >= (1 << 16) * 8
        assert isinstance(r.alloc_net_blocks, int)
        assert "alloc" in str(r)

    def test_allocation_tracking_opt_out(self):
        r = measure_throughput(lambda: None, n_dofs=1, repetitions=1,
                               warmup=0, track_allocations=False)
        assert r.alloc_peak_bytes is None
        assert r.alloc_net_blocks is None
        assert "alloc" not in str(r)

    def test_measure_allocations_buffer_reuse_is_cheap(self):
        from repro.perf.measure import measure_allocations

        buf = np.empty(1 << 14)

        def into_buffer():
            buf[...] = 1.0

        def fresh():
            np.ones(1 << 14)

        peak_reuse, _ = measure_allocations(into_buffer)
        peak_fresh, _ = measure_allocations(fresh)
        assert peak_fresh >= (1 << 14) * 8
        assert peak_reuse < peak_fresh

    def test_measure_operator_uses_vmult(self):
        class Op:
            n_dofs = 50
            calls = 0

            def vmult(self, x):
                type(self).calls += 1
                return x * 2.0

        op = Op()
        r = measure_operator(op, repetitions=4)
        assert Op.calls >= 4
        assert r.n_dofs == 50
        assert r.name == "Op"

    def test_calibrate_local_machine(self):
        from repro.perf.measure import calibrate_local_machine

        m = calibrate_local_machine(degree=2, refinements=1, repetitions=2)
        assert m.matvec_dofs_per_s_k3 > 1e3  # any working machine
        assert "NumPy" in m.name
