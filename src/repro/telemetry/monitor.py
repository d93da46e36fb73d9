"""Live monitoring of an in-flight run from its JSONL run log.

``repro monitor <run.jsonl>`` tails the log a running (or finished)
``repro lung`` simulation streams with ``--log-file``: step rate and
ETA, simulated time and time-step size, CFL, mean Krylov iterations per
solve, and the fault-tolerance activity (step retries, fallback-tier
escalations, checkpoints) of :mod:`repro.robustness`.

The reader tolerates a truncated final line (the writer flushes line by
line, so a log is a readable prefix at any instant) — that is what makes
monitoring an *in-flight* run safe.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from .report import aggregate_steps, render_robustness
from .sinks import read_run_log


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def summarize_run(path, header: dict, steps: list[dict],
                  summary: dict | None) -> str:
    """One status block for the run log's current contents."""
    meta = ", ".join(
        f"{k}={v}" for k, v in header.items()
        if k not in ("type", "schema")
    )
    lines = [f"run log: {path}" + (f" ({meta})" if meta else "")]
    if not steps:
        lines.append("no step records yet")
        lines.append("status: " + ("finished" if summary is not None
                                   else "waiting for first step"))
        return "\n".join(lines)

    agg = aggregate_steps(steps)
    planned = header.get("steps")
    last = steps[-1]
    done = f"steps: {agg.n_steps}"
    if isinstance(planned, int) and planned > 0:
        done += f"/{planned} ({agg.n_steps / planned:.0%})"
    lines.append(
        f"{done}   sim t={agg.t_end:.5g}s   "
        f"dt={last.get('dt', float('nan')):.3e}s "
        f"(mean {agg.mean_dt:.3e}s)"
    )
    wall = agg.wall_per_step_s
    if wall > 0:
        rate = f"step rate: {1.0 / wall:.3g} steps/s ({wall:.3g} s/step)"
        if isinstance(planned, int) and planned > agg.n_steps:
            remaining = planned - agg.n_steps
            rate += f"   ETA: {remaining * wall:.3g} s ({remaining} steps left)"
        lines.append(rate)
    cfl = last.get("cfl")
    cfl_s = (f"{cfl:.3f}" if isinstance(cfl, (int, float))
             and not math.isnan(cfl) else "-")
    mean_cfl_s = ("-" if math.isnan(agg.mean_cfl) else f"{agg.mean_cfl:.3f}")
    iters = ", ".join(
        f"{k} {v:.1f}" for k, v in sorted(agg.mean_iterations.items())
    )
    lines.append(f"CFL: {cfl_s} (mean {mean_cfl_s})"
                 + (f"   iterations/solve: {iters}" if iters else ""))
    recovery = last.get("recovery_events")
    if recovery:
        lines.append(f"recovery events so far: {recovery}")
    worker_phases = last.get("worker_phases")
    if worker_phases:
        # cumulative per-rank phase seconds written by distributed runs:
        # render the pack/interior/wait breakdown per worker mid-flight
        from .timeline import render_worker_phases

        breakdown = render_worker_phases(worker_phases)
        if breakdown:
            lines.append(breakdown)
    if summary is not None:
        rb = render_robustness(summary.get("metrics"))
        if rb:
            lines.append(rb)
    lines.append("status: " + ("finished" if summary is not None
                               else "running"))
    return "\n".join(lines)


def monitor_once(path) -> tuple[str, bool]:
    """Read the log once; returns ``(status_text, finished)``."""
    header, steps, summary = read_run_log(path)
    return summarize_run(path, header, steps, summary), summary is not None


def monitor_file(path, follow: bool = False, interval: float = 2.0,
                 stream=None, max_polls: int | None = None) -> int:
    """Print the run status; with ``follow``, repeat every ``interval``
    seconds until the summary footer appears (or ``max_polls`` reads).
    Returns 0 on success, 1 when the log cannot be read."""
    stream = stream or sys.stdout
    path = Path(path)
    polls = 0
    try:
        while True:
            try:
                text, finished = monitor_once(path)
            except (OSError, ValueError) as e:
                print(f"error: {e}", file=stream)
                return 1
            print(text, file=stream)
            polls += 1
            if finished or not follow:
                return 0
            if max_polls is not None and polls >= max_polls:
                return 0
            time.sleep(interval)
            print("", file=stream)
    except KeyboardInterrupt:
        # Ctrl-C while following is the normal way to stop watching a
        # long run: exit cleanly with one final status block instead of
        # unwinding with a traceback
        print("\ninterrupted -- final status:", file=stream)
        try:
            text, _ = monitor_once(path)
            print(text, file=stream)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=stream)
        return 0
