"""Perfmodel-validation smoke: the measured multi-worker wall-times of
``bench --suite scaling`` against the calibrated α-β model.

The model is calibrated from the measured serial time inside the suite,
so its multi-worker predictions isolate the partition/communication/
overlap terms.  The tolerance band is *core-aware*: on an
oversubscribed host (``available_cores < workers``, the usual CI and
container situation) real speedup is physically capped at ~1x and the
band degrades to a sanity check, while on a genuinely parallel host the
measured 2-worker speedup must land within a generous log-space band of
the core-capped prediction.
"""

import math

import numpy as np
import pytest

from repro.perf.bench import run_suite

pytestmark = pytest.mark.parallel

#: |log2(measured / expected)| allowed between the measured 2-worker
#: speedup and the core-capped model prediction.  Generous: the model
#: carries no pool-dispatch latency term and CI hardware is noisy.
LOG2_BAND = 1.5


@pytest.fixture(scope="module")
def scaling_doc():
    # best of three suite runs: one sample of a millisecond-scale pool
    # round on a shared host is too noisy to gate on
    docs = [run_suite("scaling", smoke=True, degree=3) for _ in range(3)]
    return max(docs, key=lambda d: _by_workers(d)[2]["meta"]["measured_speedup"])


def _by_workers(doc):
    return {c["meta"]["workers"]: c for c in doc["cases"]}


class TestScalingSuite:
    def test_document_shape(self, scaling_doc):
        assert scaling_doc["suite"] == "scaling"
        cases = _by_workers(scaling_doc)
        assert set(cases) == {1, 2, 4}
        for c in cases.values():
            assert c["metrics"]["best_seconds"] > 0
            assert c["meta"]["predicted_seconds"] > 0
            assert c["meta"]["available_cores"] >= 1

    def test_serial_prediction_is_anchored(self, scaling_doc):
        w1 = _by_workers(scaling_doc)[1]
        # the model is re-anchored so its 1-worker prediction equals the
        # measured serial time (the multi-worker cases then test only
        # the scaling terms)
        assert w1["meta"]["predicted_seconds"] == pytest.approx(
            w1["metrics"]["best_seconds"], rel=1e-12
        )

    def test_multiworker_cases_record_real_exchange(self, scaling_doc):
        for w in (2, 4):
            meta = _by_workers(scaling_doc)[w]["meta"]
            assert meta["n_messages"] >= 2
            assert meta["ghost_bytes"] > 0
            assert meta["max_neighbors"] >= 1
            assert meta["measured_speedup"] > 0
            assert meta["predicted_speedup"] > 1.0

    def test_measured_2worker_speedup_within_band(self, scaling_doc):
        meta = _by_workers(scaling_doc)[2]["meta"]
        cores = meta["available_cores"]
        measured = meta["measured_speedup"]
        # the model assumes one core per worker; cap its prediction by
        # the parallelism the host can actually deliver
        expected = meta["predicted_speedup"] * min(cores, 2) / 2.0
        if cores < 2:
            # oversubscribed: speedup is capped at ~1x by construction;
            # require only that the pool is not pathologically slow
            assert measured > 0.02, meta
            assert measured < 1.5, meta
        else:
            band = abs(math.log2(measured / expected))
            assert band <= LOG2_BAND, (
                f"measured {measured:.2f}x vs core-capped prediction "
                f"{expected:.2f}x (|log2| = {band:.2f} > {LOG2_BAND})"
            )

    def test_speedups_are_consistent(self, scaling_doc):
        cases = _by_workers(scaling_doc)
        t1 = cases[1]["metrics"]["best_seconds"]
        for w in (2, 4):
            c = cases[w]
            assert c["meta"]["measured_speedup"] == pytest.approx(
                t1 / c["metrics"]["best_seconds"], rel=1e-9
            )
            assert np.isfinite(c["throughput"])
