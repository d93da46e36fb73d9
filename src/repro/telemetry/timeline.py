"""Cross-process timeline tracing for the distributed runtime.

The shared-memory worker pool (:mod:`repro.parallel.runtime`) overlaps
ghost-face communication with interior cell work; the aggregated phase
counters prove the protocol runs, but not that the overlap *works*.
This module shows what every rank did *when*.  Each worker round is
measured once, in the worker's ``done`` reply: the stamps bounding its
phases (pack / post / interior / wait / cut / accumulate) plus the
peer-tagged ``send``/``unpack`` detail intervals.  With
``trace_timeline`` the master keeps those round records, and
:func:`merge_timeline` expands them into one monotonic global event
stream.

On top of the merged stream:

* :func:`chrome_trace_doc` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (load it in Perfetto or ``chrome://tracing``;
  one track per rank, flow arrows from each ghost *post* to the
  receiving rank's *unpack*),
* :func:`analyze_timeline` — per-round overlap/stall accounting: the
  wait fraction ``wait / (interior + wait)`` (0 = the exchange was
  fully hidden behind interior work), its complement
  ``overlap_efficiency``, load imbalance (max/mean interior seconds
  across ranks), and a critical-path estimate (the longest per-rank
  compute chain with all stalls removed — the round-time lower bound
  the current partition permits),
* :func:`render_timeline` — the terminal/report view of that analysis.

Timestamps are ``time.perf_counter`` seconds.  On Linux that clock is
``CLOCK_MONOTONIC``, which forked workers share with the master, so
every rank's stamps are already on one clock and the merge applies no
per-rank correction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Schema tag of the analysis document (``repro trace --json`` and the
#: ``timeline`` section of a run-log summary).
TIMELINE_SCHEMA = "repro/timeline/1"

#: Top-level protocol phases, in execution order.  These partition one
#: round's wall time on a rank: the reply carries the seven stamps that
#: bound them, so the phases telescope to the round by construction.
PHASES = ("pack", "post", "interior", "wait", "cut", "accumulate")

#: Peer-tagged detail events nested inside the top-level phases:
#: ``send`` (one per destination, inside ``pack``) and ``unpack`` (one
#: per source, inside ``cut``).  Flow arrows connect send -> unpack.
DETAIL_PHASES = ("send", "unpack")


# ----------------------------------------------------------------------
# merging per-rank streams
# ----------------------------------------------------------------------

def merge_timeline(rank_rounds: dict) -> list[dict]:
    """Merge per-rank round records into one global timeline.

    ``rank_rounds`` maps rank -> list of ``(round, stamps, peers)``
    records, as the worker pool keeps them: ``stamps`` are the seven
    clock reads bounding the :data:`PHASES` and ``peers`` the
    ``(phase, peer, t0, t1)`` :data:`DETAIL_PHASES` intervals, all
    read from the clock every rank shares.  The merged stream is
    shifted to start at t=0.  Returns plain dicts sorted by start time
    — the input every exporter/analyzer here consumes.
    """
    events: list[dict] = []
    for rank, records in rank_rounds.items():
        for rnd, stamps, peers in records:
            spans = [(p, -1, a, b)
                     for p, a, b in zip(PHASES, stamps, stamps[1:])]
            for phase, peer, t0, t1 in spans + list(peers):
                events.append(
                    {
                        "rank": int(rank),
                        "round": int(rnd),
                        "phase": phase,
                        "peer": int(peer),
                        "t0": float(t0),
                        "t1": float(t1),
                    }
                )
    events.sort(key=lambda e: (e["t0"], e["rank"], e["t1"]))
    if events:
        base = events[0]["t0"]
        for e in events:
            e["t0"] -= base
            e["t1"] -= base
    return events


# ----------------------------------------------------------------------
# Chrome trace-event export / import
# ----------------------------------------------------------------------

def chrome_trace_doc(events: list[dict], meta: dict | None = None) -> dict:
    """Render merged timeline events in the Chrome trace-event JSON
    format (the ``traceEvents`` array form Perfetto and
    ``chrome://tracing`` load directly).

    One thread track per rank, a complete (``ph="X"``) slice per event,
    and a flow arrow (``ph="s"`` -> ``ph="f"``) from every ghost
    ``send`` to the matching ``unpack`` on the receiving rank.  The
    exact start/end seconds ride along in each slice's ``args`` so
    :func:`load_chrome_trace` round-trips the timeline bit-exactly
    (the ``ts``/``dur`` microsecond fields are for the viewer).
    """
    ranks = sorted({e["rank"] for e in events})
    n_ranks = (max(ranks) + 1) if ranks else 0
    te: list[dict] = [
        {
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": "repro worker pool"},
        }
    ]
    for r in ranks:
        te.append(
            {
                "ph": "M", "pid": 0, "tid": r, "name": "thread_name",
                "args": {"name": f"rank {r}"},
            }
        )
    unpacks = {
        (e["round"], e["peer"], e["rank"]): e
        for e in events
        if e["phase"] == "unpack" and e["peer"] >= 0
    }
    for e in events:
        args = {"round": e["round"], "t0_s": e["t0"], "t1_s": e["t1"]}
        if e["peer"] >= 0:
            args["peer"] = e["peer"]
        te.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": e["rank"],
                "name": e["phase"],
                "cat": "exchange" if e["phase"] in DETAIL_PHASES else "phase",
                "ts": e["t0"] * 1e6,
                "dur": max((e["t1"] - e["t0"]) * 1e6, 0.0),
                "args": args,
            }
        )
        if e["phase"] == "send" and e["peer"] >= 0:
            dst = unpacks.get((e["round"], e["rank"], e["peer"]))
            if dst is None:
                continue
            fid = (e["round"] * n_ranks + e["rank"]) * n_ranks + e["peer"]
            common = {"cat": "ghost", "name": "ghost", "pid": 0, "id": fid}
            te.append({"ph": "s", "tid": e["rank"], "ts": e["t1"] * 1e6, **common})
            te.append({"ph": "f", "bp": "e", "tid": dst["rank"],
                       "ts": dst["t0"] * 1e6, **common})
    doc = {
        "traceEvents": te,
        "displayTimeUnit": "ms",
        "metadata": {"schema": TIMELINE_SCHEMA, **(meta or {})},
    }
    return doc


def write_chrome_trace(path, events: list[dict], meta: dict | None = None) -> Path:
    path = Path(path)
    with path.open("w") as f:
        json.dump(chrome_trace_doc(events, meta), f)
        f.write("\n")
    return path


def load_chrome_trace(path) -> tuple[list[dict], dict]:
    """Read a Chrome trace written by :func:`write_chrome_trace` back
    into ``(events, metadata)`` — the bit-exact inverse (slice ``args``
    carry the full-precision seconds)."""
    with Path(path).open() as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace-event document")
    events = []
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        t0 = args.get("t0_s", e.get("ts", 0.0) / 1e6)
        t1 = args.get("t1_s", (e.get("ts", 0.0) + e.get("dur", 0.0)) / 1e6)
        events.append(
            {
                "rank": int(e.get("tid", 0)),
                "round": int(args.get("round", -1)),
                "phase": e["name"],
                "peer": int(args.get("peer", -1)),
                "t0": float(t0),
                "t1": float(t1),
            }
        )
    events.sort(key=lambda ev: (ev["t0"], ev["rank"], ev["t1"]))
    return events, dict(doc.get("metadata", {}))


# ----------------------------------------------------------------------
# analysis: overlap efficiency, imbalance, critical path
# ----------------------------------------------------------------------

def _phase_seconds(events: list[dict]):
    """((round, rank) -> {phase: seconds}) over the top-level phases,
    plus per-rank detail-phase totals."""
    rounds: dict[tuple[int, int], dict] = {}
    detail: dict[int, dict] = {}
    for e in events:
        dur = e["t1"] - e["t0"]
        if e["phase"] in DETAIL_PHASES:
            d = detail.setdefault(e["rank"], {p: 0.0 for p in DETAIL_PHASES})
            d[e["phase"]] += dur
            continue
        rec = rounds.setdefault(
            (e["round"], e["rank"]),
            {"t0": e["t0"], "t1": e["t1"], "phases": {}},
        )
        rec["t0"] = min(rec["t0"], e["t0"])
        rec["t1"] = max(rec["t1"], e["t1"])
        rec["phases"][e["phase"]] = rec["phases"].get(e["phase"], 0.0) + dur
    return rounds, detail


def analyze_timeline(events: list[dict], rank_bytes: dict | None = None) -> dict:
    """Per-round overlap/stall accounting of a merged timeline.

    Per round (and aggregated over the solve):

    * ``wait_fraction`` — ``sum(wait) / sum(interior + wait)`` over the
      ranks: the share of the post-to-unpack window spent stalled on
      neighbors.  0 means the exchange was completely hidden behind
      interior work; 1 means no overlap happened at all.
    * ``overlap_efficiency`` — ``1 - wait_fraction``.
    * ``imbalance`` — max/mean interior seconds across ranks (1.0 =
      perfectly balanced partition).
    * ``critical_path_s`` — the longest per-rank compute chain with the
      wait removed, ``max_r(round_r - wait_r)``: the round-time lower
      bound the current partition permits.  Aggregated, the ratio
      ``wall_s / critical_path_s`` bounds the speedup available from
      eliminating stalls alone.

    ``rank_bytes`` (rank -> ``{"send": bytes, "recv": bytes}`` per
    round, e.g. :meth:`WorkerPool.rank_exchange_bytes`) adds
    achieved exchange bandwidth per rank.  Returns a JSON-serializable
    ``repro/timeline/1`` document.
    """
    per_round_rank, detail = _phase_seconds(events)
    by_round: dict[int, dict] = {}
    for (rnd, rank), rec in per_round_rank.items():
        by_round.setdefault(rnd, {})[rank] = rec

    rounds = []
    tot_interior = tot_wait = tot_wall = tot_crit = 0.0
    phase_totals = {p: 0.0 for p in PHASES}
    rank_phase: dict[int, dict] = {}
    rank_rounds: dict[int, int] = {}
    for rnd in sorted(by_round):
        ranks = by_round[rnd]
        interior = {r: rec["phases"].get("interior", 0.0) for r, rec in ranks.items()}
        wait = {r: rec["phases"].get("wait", 0.0) for r, rec in ranks.items()}
        s_int = sum(interior.values())
        s_wait = sum(wait.values())
        wall = max(rec["t1"] for rec in ranks.values()) - min(
            rec["t0"] for rec in ranks.values()
        )
        crit = max(
            sum(rec["phases"].values()) - wait[r] for r, rec in ranks.items()
        )
        window = s_int + s_wait
        wait_frac = s_wait / window if window > 0 else 0.0
        mean_int = s_int / len(interior) if interior else 0.0
        imbalance = (
            max(interior.values()) / mean_int if mean_int > 0 else float("nan")
        )
        max_wait_rank = max(wait, key=wait.get) if wait else -1
        rounds.append(
            {
                "round": rnd,
                "n_ranks": len(ranks),
                "wall_s": wall,
                "wait_fraction": wait_frac,
                "overlap_efficiency": 1.0 - wait_frac,
                "imbalance": imbalance,
                "critical_path_s": crit,
                "max_wait_rank": int(max_wait_rank),
                "max_wait_s": wait.get(max_wait_rank, 0.0),
            }
        )
        tot_interior += s_int
        tot_wait += s_wait
        tot_wall += wall
        tot_crit += crit
        for r, rec in ranks.items():
            rp = rank_phase.setdefault(r, {p: 0.0 for p in PHASES})
            for p, sec in rec["phases"].items():
                rp[p] = rp.get(p, 0.0) + sec
            rank_rounds[r] = rank_rounds.get(r, 0) + 1
        for p in PHASES:
            phase_totals[p] += sum(
                rec["phases"].get(p, 0.0) for rec in ranks.values()
            )

    per_rank: dict[str, dict] = {}
    for r in sorted(rank_phase):
        info: dict = {
            "rounds": rank_rounds[r],
            "phase_seconds": {
                p: rank_phase[r].get(p, 0.0)
                for p in PHASES
                if rank_phase[r].get(p, 0.0) > 0.0 or p in PHASES
            },
        }
        d = detail.get(r)
        if d:
            info["detail_seconds"] = dict(d)
        if rank_bytes and (r in rank_bytes or str(r) in rank_bytes):
            rb = rank_bytes.get(r, rank_bytes.get(str(r), {}))
            per_round_bytes = float(rb.get("send", 0)) + float(rb.get("recv", 0))
            moved = per_round_bytes * rank_rounds[r]
            comm_s = (
                rank_phase[r].get("pack", 0.0)
                + rank_phase[r].get("post", 0.0)
                + rank_phase[r].get("wait", 0.0)
                + (d or {}).get("unpack", 0.0)
            )
            info["exchange_bytes_per_round"] = per_round_bytes
            info["exchange_bytes_total"] = moved
            info["exchange_seconds"] = comm_s
            info["achieved_gb_s"] = moved / comm_s / 1e9 if comm_s > 0 else 0.0
        per_rank[str(r)] = info

    window = tot_interior + tot_wait
    wait_frac = tot_wait / window if window > 0 else 0.0
    mean_int_rank = (
        tot_interior / len(rank_phase) if rank_phase else 0.0
    )
    imbalance = (
        max(rp.get("interior", 0.0) for rp in rank_phase.values()) / mean_int_rank
        if mean_int_rank > 0
        else float("nan")
    )
    return {
        "schema": TIMELINE_SCHEMA,
        "n_ranks": len(rank_phase),
        "n_rounds": len(rounds),
        "n_events": len(events),
        "rounds": rounds,
        "totals": {
            "wall_s": tot_wall,
            "interior_s": tot_interior,
            "wait_s": tot_wait,
            "wait_fraction": wait_frac,
            "overlap_efficiency": 1.0 - wait_frac,
            "imbalance": imbalance,
            "critical_path_s": tot_crit,
            "stall_speedup_bound": (tot_wall / tot_crit) if tot_crit > 0 else 1.0,
            "phase_seconds": phase_totals,
            "per_rank": per_rank,
        },
    }


def render_timeline(analysis: dict, max_rounds: int = 5) -> str:
    """Terminal view of a timeline analysis document (the "Distributed
    timeline" section of ``repro report`` and ``repro trace``)."""
    t = analysis.get("totals", {})
    lines = [
        f"distributed timeline: {analysis.get('n_ranks', 0)} ranks, "
        f"{analysis.get('n_rounds', 0)} rounds, "
        f"{analysis.get('n_events', 0)} events",
        f"  overlap efficiency: {t.get('overlap_efficiency', float('nan')):.1%}"
        f" (wait fraction {t.get('wait_fraction', float('nan')):.1%})   "
        f"imbalance (max/mean interior): "
        + (
            f"{t['imbalance']:.2f}"
            if isinstance(t.get("imbalance"), (int, float))
            and math.isfinite(t.get("imbalance", float("nan")))
            else "-"
        ),
        f"  exchange wall {t.get('wall_s', 0.0):.4f} s, critical path "
        f"{t.get('critical_path_s', 0.0):.4f} s "
        f"(x{t.get('stall_speedup_bound', 1.0):.2f} bound from removing "
        f"stalls)",
    ]
    ph = t.get("phase_seconds") or {}
    if ph:
        lines.append(
            "  phase seconds: "
            + "  ".join(f"{p} {ph.get(p, 0.0):.4f}" for p in PHASES)
        )
    per_rank = t.get("per_rank") or {}
    for r in sorted(per_rank, key=int):
        info = per_rank[r]
        rp = info.get("phase_seconds", {})
        row = (
            f"  rank {r}: interior {rp.get('interior', 0.0):.4f} s  "
            f"wait {rp.get('wait', 0.0):.4f} s"
        )
        if "achieved_gb_s" in info:
            row += (
                f"  exchange {info['exchange_bytes_total'] / 1e6:.3f} MB "
                f"@ {info['achieved_gb_s']:.3f} GB/s"
            )
        lines.append(row)
    rounds = analysis.get("rounds") or []
    worst = sorted(rounds, key=lambda r: r.get("wait_fraction", 0.0),
                   reverse=True)[:max_rounds]
    if worst:
        lines.append(
            f"  worst rounds by wait fraction (of {len(rounds)}):"
        )
        lines.append(
            f"    {'round':>6s} {'wall [s]':>10s} {'wait':>7s} "
            f"{'overlap':>8s} {'imbal':>6s} {'stalled-on':>10s}"
        )
        for r in worst:
            imb = r.get("imbalance", float("nan"))
            imb_s = f"{imb:.2f}" if math.isfinite(imb) else "-"
            lines.append(
                f"    {r['round']:>6d} {r['wall_s']:>10.3e} "
                f"{r['wait_fraction']:>7.1%} "
                f"{r['overlap_efficiency']:>8.1%} {imb_s:>6s} "
                f"{('rank ' + str(r['max_wait_rank'])):>10s}"
            )
    return "\n".join(lines)


def render_worker_phases(worker_phases: dict) -> str:
    """Per-worker phase breakdown (percent of that worker's recorded
    round time) from cumulative phase-seconds totals — the view
    ``repro monitor`` shows for run logs carrying merged worker
    telemetry."""
    if not worker_phases:
        return ""
    lines = ["worker phases (% of per-rank round time):"]
    for rank in sorted(worker_phases, key=lambda k: int(k)):
        phases = worker_phases[rank]
        total = sum(phases.values())
        if total <= 0:
            continue
        parts = "  ".join(
            f"{p} {phases.get(p, 0.0) / total:.1%}"
            for p in PHASES
            if p in phases
        )
        lines.append(f"  rank {rank}: {parts}  (total {total:.3f} s)")
    return "\n".join(lines) if len(lines) > 1 else ""
