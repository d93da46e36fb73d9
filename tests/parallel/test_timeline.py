"""Tests of the cross-process timeline tracing stack.

Tier-1 half: the master-side reply-to-views function
(:meth:`~repro.parallel.WorkerPool._record_round`) on synthetic stamps,
the merge/export/analysis pipeline on synthetic hand-computed
timelines, and the Chrome trace-event JSON round-trip.  Tests that fork
a real traced worker pool are marked ``parallel`` (enable with
``--run-parallel``): the full contract there is that tracing observes
without perturbing — the traced mat-vec stays bitwise identical to the
serial operator — while every protocol round leaves a complete
six-phase event record per rank, and the master's metric registry
counts exactly the rounds the workers completed.
"""

import json

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel import WorkerPool
from repro.parallel.runtime import DistributedSolverContext, PartitionPlan
from repro.telemetry import METRICS, TRACER
from repro.telemetry.metrics import snapshot_doc
from repro.telemetry.timeline import (
    PHASES,
    TIMELINE_SCHEMA,
    analyze_timeline,
    chrome_trace_doc,
    load_chrome_trace,
    merge_timeline,
    render_timeline,
    render_worker_phases,
    write_chrome_trace,
)


def make_op(forest, degree=2, dirichlet=(1,)):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet)


def master_metrics():
    """The master registry's current samples, by metric name."""
    return {m["name"]: m for m in snapshot_doc(METRICS)["metrics"]}


def metric_total(by_name, name):
    return sum(s["value"] for s in by_name[name]["samples"])


@pytest.fixture
def master_registry():
    METRICS.reset()
    METRICS.enable()
    try:
        yield
    finally:
        METRICS.disable()
        METRICS.reset()


class TestRecordRound:
    """The one master-side function that turns a worker's ``done``
    reply into phase totals, metrics and timeline events — no fork."""

    # deliberately uneven stamps, so the differences carry rounding
    STAMPS = (100.1, 100.3, 100.30007, 100.9, 101.05, 101.4, 101.41)
    PEERS = (("send", 1, 100.15, 100.2), ("send", 2, 100.2, 100.25),
             ("unpack", 1, 101.1, 101.2), ("unpack", 2, 101.2, 101.3))
    SPINS = ((1, 0), (2, 17))

    def test_durations_metrics_and_events(self, master_registry):
        pool = WorkerPool(3, trace_timeline=True)
        pool._record_round(0, 1, self.STAMPS, self.PEERS, self.SPINS)
        pool._record_round(0, 2, self.STAMPS, self.PEERS, self.SPINS)
        diffs = [b - a for a, b in zip(self.STAMPS, self.STAMPS[1:])]
        assert pool.last_timings[0] == dict(zip(PHASES, diffs))
        assert pool.last_timings[1] is None
        # bitwise: the totals are the same differences added twice
        assert pool.phase_totals[0] == {p: d + d for p, d in zip(PHASES, diffs)}
        assert pool.worker_phase_totals() == {"0": pool.phase_totals[0]}

        by_name = master_metrics()
        assert metric_total(by_name, "repro_parallel_worker_vmults_total") == 2
        phases = {s["labels"][0]: s["value"] for s in
                  by_name["repro_parallel_worker_phase_seconds_total"]["samples"]}
        assert phases == pool.phase_totals[0]
        spins = {s["labels"][0]: (s["count"], s["sum"]) for s in
                 by_name["repro_parallel_ghost_wait_spins"]["samples"]}
        assert spins == {"1": (2, 0.0), "2": (2, 34.0)}

        events = pool.timeline_events()
        assert len(events) == 2 * (len(PHASES) + len(self.PEERS))
        for rnd in (1, 2):
            mine = [e for e in events if e["round"] == rnd]
            assert [e["phase"] for e in mine if e["phase"] in PHASES] \
                == list(PHASES)
            detail = sorted((e["phase"], e["peer"]) for e in mine
                            if e["phase"] not in PHASES)
            assert detail == [("send", 1), ("send", 2),
                              ("unpack", 1), ("unpack", 2)]
            assert all(e["peer"] == -1 for e in mine if e["phase"] in PHASES)

    def test_untraced_pool_keeps_no_events(self, master_registry):
        pool = WorkerPool(2)
        pool._record_round(1, 1, self.STAMPS, self.PEERS[:1], self.SPINS[:1])
        assert pool.timeline_events() == []
        assert set(pool.worker_phase_totals()) == {"1"}


def ev(rank, rnd, phase, t0, t1, peer=-1):
    return {"rank": rank, "round": rnd, "phase": phase, "peer": peer,
            "t0": t0, "t1": t1}


def synthetic_round(rank, rnd, base, interior, wait):
    """One rank's six-phase round starting at ``base`` with the given
    interior/wait seconds (the other phases get fixed small times)."""
    t = base
    out = []
    for phase, dur in (("pack", 0.01), ("post", 0.002),
                       ("interior", interior), ("wait", wait),
                       ("cut", 0.03), ("accumulate", 0.005)):
        out.append(ev(rank, rnd, phase, t, t + dur))
        t += dur
    return out


def stamps(t0, step=1.0):
    """The seven stamps of a round whose six phases each take ``step``."""
    return tuple(t0 + i * step for i in range(len(PHASES) + 1))


class TestMergeTimeline:
    def test_ranks_share_one_clock_shifted_to_zero(self):
        a = (0, stamps(100.0), ())
        b = (0, stamps(100.5), (("send", 0, 100.6, 100.7),))
        merged = merge_timeline({0: [a], 1: [b]})
        assert [(e["rank"], e["phase"]) for e in merged[:4]] == [
            (0, "pack"), (1, "pack"), (1, "send"), (0, "post"),
        ]
        # one shared clock, shifted so the stream starts at t=0
        assert merged[0]["t0"] == 0.0
        assert merged[1]["t0"] == pytest.approx(0.5)
        assert merged[2]["t0"] == pytest.approx(0.6)
        assert merged[2]["peer"] == 0
        assert merged[3]["t0"] == pytest.approx(1.0)

    def test_multiple_chunks_per_rank(self):
        # one record per round; a rank's records expand in time order
        merged = merge_timeline(
            {0: [(0, stamps(0.0), ()), (1, stamps(10.0), ())]}
        )
        assert [e["t0"] for e in merged] == [float(t) for t in
                                            (0, 1, 2, 3, 4, 5,
                                             10, 11, 12, 13, 14, 15)]
        assert [e["round"] for e in merged] == [0] * 6 + [1] * 6
        assert [e["phase"] for e in merged] == list(PHASES) * 2


class TestChromeTrace:
    def timeline(self):
        events = synthetic_round(0, 0, 0.0, 0.5, 0.01)
        events += synthetic_round(1, 0, 0.001, 0.4, 0.11)
        # a matched send/unpack pair gets a flow arrow
        events.append(ev(0, 0, "send", 0.002, 0.008, peer=1))
        events.append(ev(1, 0, "unpack", 0.55, 0.56, peer=0))
        events.sort(key=lambda e: (e["t0"], e["rank"], e["t1"]))
        return events

    def test_document_schema(self):
        doc = chrome_trace_doc(self.timeline(), meta={"note": "x"})
        assert doc["metadata"]["schema"] == TIMELINE_SCHEMA
        assert doc["metadata"]["note"] == "x"
        te = doc["traceEvents"]
        names = {e["name"] for e in te if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
        slices = [e for e in te if e["ph"] == "X"]
        assert len(slices) == len(self.timeline())
        for s in slices:
            assert set(s) >= {"name", "pid", "tid", "ts", "dur", "args"}
            assert s["dur"] >= 0.0
        assert {s["tid"] for s in slices} == {0, 1}

    def test_flow_arrow_connects_send_to_unpack(self):
        te = chrome_trace_doc(self.timeline())["traceEvents"]
        starts = [e for e in te if e["ph"] == "s"]
        finishes = [e for e in te if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["tid"] == 0 and finishes[0]["tid"] == 1

    def test_round_trip_is_bit_exact(self, tmp_path):
        events = self.timeline()
        path = write_chrome_trace(tmp_path / "trace.json",
                                  events, meta={"k": 1})
        loaded, meta = load_chrome_trace(path)
        assert meta["schema"] == TIMELINE_SCHEMA and meta["k"] == 1
        assert loaded == sorted(
            events, key=lambda e: (e["t0"], e["rank"], e["t1"])
        )
        # and the analysis of the loaded trace is exactly reproducible
        assert analyze_timeline(loaded) == analyze_timeline(events)

    def test_load_rejects_non_trace(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_chrome_trace(p)


class TestAnalyzeTimeline:
    def test_hand_computed_round(self):
        # rank 0: interior 0.5 s, wait 0.01 s; rank 1: 0.4 s / 0.11 s
        events = synthetic_round(0, 0, 0.0, 0.5, 0.01)
        events += synthetic_round(1, 0, 0.0, 0.4, 0.11)
        a = analyze_timeline(events)
        assert a["schema"] == TIMELINE_SCHEMA
        assert a["n_ranks"] == 2 and a["n_rounds"] == 1
        assert a["n_events"] == 12
        (r,) = a["rounds"]
        assert r["wait_fraction"] == pytest.approx(0.12 / 1.02)
        assert r["overlap_efficiency"] == pytest.approx(1 - 0.12 / 1.02)
        assert r["imbalance"] == pytest.approx(0.5 / 0.45)
        # critical path: the slower rank's chain minus its wait
        per_rank_chain = 0.01 + 0.002 + 0.03 + 0.005
        assert r["critical_path_s"] == pytest.approx(per_rank_chain + 0.5)
        assert r["max_wait_rank"] == 1
        assert r["max_wait_s"] == pytest.approx(0.11)
        t = a["totals"]
        assert t["wait_fraction"] == pytest.approx(r["wait_fraction"])
        assert t["interior_s"] == pytest.approx(0.9)
        assert t["wait_s"] == pytest.approx(0.12)
        assert t["phase_seconds"]["pack"] == pytest.approx(0.02)
        assert set(t["per_rank"]) == {"0", "1"}
        assert t["per_rank"]["1"]["phase_seconds"]["wait"] == pytest.approx(0.11)

    def test_totals_aggregate_over_rounds(self):
        events = []
        for rnd in range(3):
            events += synthetic_round(0, rnd, rnd * 2.0, 0.5, 0.1)
            events += synthetic_round(1, rnd, rnd * 2.0, 0.5, 0.1)
        a = analyze_timeline(events)
        assert a["n_rounds"] == 3
        t = a["totals"]
        assert t["interior_s"] == pytest.approx(3.0)
        assert t["critical_path_s"] == pytest.approx(
            sum(r["critical_path_s"] for r in a["rounds"])
        )
        assert t["stall_speedup_bound"] == pytest.approx(
            t["wall_s"] / t["critical_path_s"]
        )
        assert t["per_rank"]["0"]["rounds"] == 3

    def test_rank_bytes_bandwidth(self):
        events = synthetic_round(0, 0, 0.0, 0.5, 0.1)
        events.append(ev(0, 0, "unpack", 0.62, 0.64, peer=1))
        # str keys (the JSON round-tripped form) must work too
        for rb in ({0: {"send": 1000, "recv": 500}},
                   {"0": {"send": 1000, "recv": 500}}):
            a = analyze_timeline(events, rank_bytes=rb)
            info = a["totals"]["per_rank"]["0"]
            assert info["exchange_bytes_per_round"] == 1500.0
            assert info["exchange_bytes_total"] == 1500.0
            comm = 0.01 + 0.002 + 0.1 + 0.02  # pack + post + wait + unpack
            assert info["exchange_seconds"] == pytest.approx(comm)
            assert info["achieved_gb_s"] == pytest.approx(1500.0 / comm / 1e9)
            assert info["detail_seconds"]["unpack"] == pytest.approx(0.02)

    def test_empty_timeline(self):
        a = analyze_timeline([])
        assert a["n_ranks"] == 0 and a["rounds"] == []
        assert a["totals"]["wait_fraction"] == 0.0

    def test_json_round_trip_is_exact(self):
        events = synthetic_round(0, 0, 0.0, 0.31415, 0.00271)
        a = analyze_timeline(events)
        assert json.loads(json.dumps(a)) == a


class TestRendering:
    def test_render_timeline(self):
        events = synthetic_round(0, 0, 0.0, 0.5, 0.01)
        events += synthetic_round(1, 0, 0.0, 0.4, 0.11)
        text = render_timeline(
            analyze_timeline(events, rank_bytes={0: {"send": 8, "recv": 8}})
        )
        assert "distributed timeline: 2 ranks, 1 rounds" in text
        assert "overlap efficiency" in text
        assert "critical path" in text
        assert "rank 0" in text and "GB/s" in text
        assert "worst rounds by wait fraction" in text

    def test_render_worker_phases(self):
        text = render_worker_phases(
            {"0": {"pack": 0.1, "interior": 0.7, "wait": 0.2},
             "1": {"pack": 0.2, "interior": 0.6, "wait": 0.2}}
        )
        assert "worker phases" in text
        assert "rank 0: pack 10.0%  interior 70.0%  wait 20.0%" in text
        assert "rank 1" in text
        assert render_worker_phases({}) == ""
        assert render_worker_phases({"0": {"pack": 0.0}}) == ""


@pytest.mark.parallel
class TestTracedWorkerPool:
    """A real fork + shared-memory pool with timeline tracing on."""

    def pool_op(self):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        return make_op(forest)

    def test_traced_vmult_bitwise_and_complete(self, rng):
        op = self.pool_op()
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2, trace_timeline=True)
        pool.register("op", op)
        with pool:
            for _ in range(3):
                assert np.array_equal(pool.vmult("op", x), op.vmult(x))
            events = pool.timeline_events()
            totals = pool.worker_phase_totals()
        # every (round, rank) carries the full six-phase record
        seen = {}
        for e in events:
            if e["phase"] in PHASES:
                seen.setdefault((e["round"], e["rank"]), set()).add(e["phase"])
        rounds = sorted({r for r, _ in seen})
        assert len(rounds) == 3
        assert set(seen) == {(r, w) for r in rounds for w in range(2)}
        assert all(phases == set(PHASES) for phases in seen.values())
        # phases partition the round: per (round, rank) they abut and
        # sum to the rank's round span (the worker-side invariant)
        for (rnd, rank) in seen:
            span = [e for e in events
                    if e["round"] == rnd and e["rank"] == rank
                    and e["phase"] in PHASES]
            span.sort(key=lambda e: e["t0"])
            total = sum(e["t1"] - e["t0"] for e in span)
            wall = span[-1]["t1"] - span[0]["t0"]
            assert total == pytest.approx(wall, rel=1e-6, abs=1e-9)
        analysis = analyze_timeline(events)
        assert analysis["n_rounds"] == 3 and analysis["n_ranks"] == 2
        assert 0.0 <= analysis["totals"]["wait_fraction"] <= 1.0
        # the phase totals and the timeline are views of one record:
        # they differ only by the rounding of the shift to t=0
        per_rank = analysis["totals"]["per_rank"]
        assert set(totals) == set(per_rank) == {"0", "1"}
        for r, phases in totals.items():
            assert phases == pytest.approx(per_rank[r]["phase_seconds"],
                                           rel=1e-9, abs=1e-12)

    def test_cross_rank_order_is_causal(self, rng):
        """Forked workers read the master's clock, so the merged events
        order across ranks exactly, with no tolerance: in every round a
        source posts before its destination's wait ends, and every
        ``send`` copy ends before the matching ``unpack`` starts."""
        op = self.pool_op()
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2, trace_timeline=True)
        pool.register("op", op)
        with pool:
            for _ in range(4):
                pool.vmult("op", x)
            events = pool.timeline_events()
        phase = {(e["round"], e["rank"], e["phase"], e["peer"]): e
                 for e in events}
        sends = [e for e in events if e["phase"] == "send"]
        assert {(e["rank"], e["peer"]) for e in sends} == {(0, 1), (1, 0)}
        assert len(sends) == 4 * 2
        for s in sends:
            rnd, src, dst = s["round"], s["rank"], s["peer"]
            post = phase[(rnd, src, "post", -1)]
            wait = phase[(rnd, dst, "wait", -1)]
            unpack = phase[(rnd, dst, "unpack", src)]
            assert post["t0"] <= wait["t1"]
            assert s["t1"] <= unpack["t0"]

    def test_traced_ensemble_vmult_bitwise(self, rng):
        op = self.pool_op()
        xE = rng.standard_normal((3, op.n_dofs))
        pool = WorkerPool(2, trace_timeline=True)
        pool.register("op", op)
        with pool:
            assert np.array_equal(pool.vmult("op", xE), op.vmult(xE))
            assert len(pool.timeline_events()) > 0

    def test_tracing_off_creates_no_timeline_segments(self, rng):
        import glob
        op = self.pool_op()
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            pool.vmult("op", rng.standard_normal(op.n_dofs))
            assert glob.glob(f"/dev/shm/{pool.shm_prefix}*tl*") == []
            assert pool.timeline_events() == []

    def test_rank_exchange_bytes(self, rng):
        op = self.pool_op()
        pool = WorkerPool(2, trace_timeline=True)
        pool.register("op", op)
        with pool:
            pool.vmult("op", rng.standard_normal(op.n_dofs))
            rb = pool.rank_exchange_bytes()
        plan_rb = PartitionPlan(op, 2).rank_exchange_bytes()
        assert rb == plan_rb
        assert all(v["send"] > 0 and v["recv"] > 0 for v in rb.values())

    def test_exchange_bytes_count_each_round_lead(self, rng):
        """A flat round plus a ``(2, n)`` round move three flat rounds'
        worth of ghost bytes, and the analysis reports exactly that."""
        op = self.pool_op()
        pool = WorkerPool(2, trace_timeline=True)
        pool.register("op", op)
        with pool:
            pool.vmult("op", rng.standard_normal(op.n_dofs))
            pool.vmult("op", rng.standard_normal((2, op.n_dofs)))
            a = analyze_timeline(pool.timeline_events(),
                                 rank_bytes=pool.rank_exchange_bytes())
        plan_rb = PartitionPlan(op, 2).rank_exchange_bytes()
        for r, v in plan_rb.items():
            info = a["totals"]["per_rank"][str(r)]
            assert info["rounds"] == 2
            assert info["exchange_bytes_total"] == 3 * (v["send"] + v["recv"])

    def test_tracer_worker_subspans(self, rng):
        op = self.pool_op()
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", op)
        TRACER.reset()
        TRACER.enable()
        try:
            with pool, TRACER.span("solve"):
                pool.vmult("op", x)
                pool.vmult("op", x)
        finally:
            TRACER.disable()
        solve = TRACER.root.children["solve"]
        workers = solve.children["workers"]
        assert workers.count == 2
        assert workers.total > 0
        for r in range(2):
            rank = workers.children[f"rank{r}"]
            assert set(rank.children) == set(PHASES)
            assert rank.total == pytest.approx(
                sum(c.total for c in rank.children.values())
            )


@pytest.mark.parallel
class TestMergedWorkerTelemetry:
    """The master registry's worker series under ensemble inputs,
    session reuse, and a pool restart after a worker crash."""

    def pool_op(self):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        return make_op(forest)

    def test_post_phase_and_spin_histogram(self, rng, master_registry):
        op = self.pool_op()
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            pool.vmult("op", rng.standard_normal(op.n_dofs))
        by_name = master_metrics()
        phases = by_name["repro_parallel_worker_phase_seconds_total"]
        seen = {s["labels"][0] for s in phases["samples"]}
        assert seen == set(PHASES)  # completeness: post included
        spins = by_name["repro_parallel_ghost_wait_spins"]
        # each worker waited on its peer, once per round
        counts = {s["labels"][0]: s["count"] for s in spins["samples"]}
        assert counts == {"0": 1, "1": 1}

    def test_ensemble_rounds_merge(self, rng, master_registry):
        op = self.pool_op()
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            pool.vmult("op", rng.standard_normal((3, op.n_dofs)))
        # one round regardless of the ensemble width; both workers count
        assert metric_total(master_metrics(),
                            "repro_parallel_worker_vmults_total") == 2.0

    def test_session_reuse_accumulates(self, rng, master_registry):
        op = self.pool_op()
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            for _ in range(3):
                pool.vmult("op", x)
            totals = pool.worker_phase_totals()
        by_name = master_metrics()
        assert metric_total(by_name, "repro_parallel_worker_vmults_total") == 6.0
        assert set(totals) == {"0", "1"}
        for phases in totals.values():
            assert set(phases) == set(PHASES)
            assert phases["interior"] > 0
        # the exported phase seconds are the pools' per-rank totals summed
        exported = {s["labels"][0]: s["value"] for s in
                    by_name["repro_parallel_worker_phase_seconds_total"]["samples"]}
        for p in PHASES:
            assert exported[p] == pytest.approx(
                sum(t[p] for t in totals.values()), rel=1e-12)

    def test_master_registry_counts_rounds_across_crash(self, rng,
                                                        master_registry):
        from repro.parallel import WorkerCrash
        op = self.pool_op()
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", op)
        pool.start()
        try:
            pool.vmult("op", x)
            pool.inject_crash(1)
            with pytest.raises(WorkerCrash):
                pool.vmult("op", x)
        finally:
            pool.close()
        # a fresh pool after the crash keeps counting into the same
        # registry; the crashed round completed on no rank that counts
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            pool.vmult("op", x)
            pool.vmult("op", x)
        by_name = master_metrics()
        assert metric_total(by_name, "repro_parallel_worker_vmults_total") == 6.0
        assert metric_total(by_name, "repro_parallel_pool_vmults_total") == 4.0
        assert metric_total(by_name, "repro_parallel_worker_crashes_total") == 1.0
        spins = by_name["repro_parallel_ghost_wait_spins"]
        assert {s["labels"][0]: s["count"] for s in spins["samples"]} == {
            "0": 3, "1": 3}


@pytest.mark.parallel
class TestDistributedLungCLI:
    def test_metrics_file_includes_worker_series(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry.metrics import load_metrics

        path = tmp_path / "m.json"
        assert main(["lung", "--steps", "1", "--generations", "1",
                     "--workers", "2", "--metrics-file", str(path)]) == 0
        doc = load_metrics(path)
        by_name = {m["name"]: m for m in doc["metrics"]}
        spins = by_name["repro_parallel_ghost_wait_spins"]
        assert {s["labels"][0] for s in spins["samples"]} == {"0", "1"}
        phases = by_name["repro_parallel_worker_phase_seconds_total"]
        assert {s["labels"][0] for s in phases["samples"]} >= set(PHASES)
        vm = by_name["repro_parallel_worker_vmults_total"]
        assert sum(s["value"] for s in vm["samples"]) > 0


@pytest.mark.parallel
class TestDistributedContextTimeline:
    def test_context_exposes_timeline(self, rng):
        op = make_op(Forest(box(subdivisions=(4, 2, 1),
                                boundary_ids={0: 1})))
        b = rng.standard_normal(op.n_dofs)
        with DistributedSolverContext(op, n_workers=2,
                                      trace_timeline=True) as ctx:
            ctx.operator.vmult(b)
            events = ctx.timeline_events()
            rb = ctx.rank_exchange_bytes()
            totals = ctx.worker_phase_totals()
        assert len(events) > 0
        assert set(rb) == {0, 1}
        assert set(totals) == {"0", "1"}
        a = analyze_timeline(events, rank_bytes=rb)
        assert "achieved_gb_s" in a["totals"]["per_rank"]["0"]
