"""Terminal reports over telemetry data.

Three views:

* :func:`render_breakdown` — the paper's Table-2-style wall-time
  breakdown of one run: seconds per time step and share of the step for
  every dual-splitting sub-step, plus mean Krylov iterations per solve.
* :func:`render_span_tree` — the raw hierarchical span profile of a
  :class:`~repro.telemetry.tracer.Tracer` (inclusive/exclusive seconds
  and call counts per nested region).
* :func:`render_robustness` — the fault-tolerance activity of a run
  (:func:`robustness_rows`), read from its metric families.

They operate on plain dicts so they work equally on live
``StepStatistics`` objects and registries and on records read back from
a JSONL run log by :func:`~repro.telemetry.sinks.read_run_log`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# canonical sub-step display order (dual splitting, Eqs. (1)-(5))
SUBSTEP_ORDER = (
    "convective",
    "pressure_poisson",
    "projection",
    "helmholtz",
    "penalty",
    "convective_eval",
)
# sub-step -> iteration-count key in the step records
ITERATION_KEYS = {
    "pressure_poisson": "pressure",
    "helmholtz": "viscous",
    "penalty": "penalty",
}


@dataclass
class RunAggregate:
    """Per-run totals computed from step records."""

    n_steps: int = 0
    t_end: float = 0.0
    total_wall_s: float = 0.0
    mean_dt: float = 0.0
    mean_cfl: float = float("nan")
    substep_totals_s: dict[str, float] = field(default_factory=dict)
    mean_iterations: dict[str, float] = field(default_factory=dict)

    @property
    def wall_per_step_s(self) -> float:
        return self.total_wall_s / self.n_steps if self.n_steps else 0.0


def aggregate_steps(steps) -> RunAggregate:
    """Aggregate step records (dicts from a run log, or
    ``StepStatistics`` objects) into per-run totals."""
    agg = RunAggregate()
    cfls: list[float] = []
    iter_sums: dict[str, float] = {}
    for s in steps:
        if not isinstance(s, dict):  # live StepStatistics
            from .sinks import step_record

            s = step_record(s, agg.n_steps)
        agg.n_steps += 1
        agg.t_end = s.get("t", agg.t_end)
        agg.mean_dt += s.get("dt", 0.0)
        agg.total_wall_s += s.get("wall_time_s", 0.0)
        cfl = s.get("cfl")
        if cfl is not None and not math.isnan(cfl):
            cfls.append(cfl)
        for name, sec in (s.get("substeps_s") or {}).items():
            agg.substep_totals_s[name] = agg.substep_totals_s.get(name, 0.0) + sec
        for key, n in (s.get("iterations") or {}).items():
            iter_sums[key] = iter_sums.get(key, 0.0) + n
    if agg.n_steps:
        agg.mean_dt /= agg.n_steps
        agg.mean_iterations = {k: v / agg.n_steps for k, v in iter_sums.items()}
    if cfls:
        agg.mean_cfl = sum(cfls) / len(cfls)
    return agg


def _ordered_substeps(totals: dict[str, float]) -> list[str]:
    known = [n for n in SUBSTEP_ORDER if n in totals]
    return known + sorted(set(totals) - set(known))


def render_breakdown(agg: RunAggregate, title: str = "wall time per time step") -> str:
    """Table-2-style breakdown: time/step and share per sub-step."""
    lines = [
        f"{title} ({agg.n_steps} steps, t_end={agg.t_end:.5g}s, "
        f"mean dt={agg.mean_dt:.3e}s"
        + (f", mean CFL={agg.mean_cfl:.3f}" if not math.isnan(agg.mean_cfl) else "")
        + ")",
        f"{'sub-step':<20s} {'time/step [s]':>14s} {'share':>7s} {'iters/solve':>12s}",
    ]
    per_step = agg.wall_per_step_s
    accounted = 0.0
    for name in _ordered_substeps(agg.substep_totals_s):
        sec = agg.substep_totals_s[name] / max(agg.n_steps, 1)
        accounted += sec
        share = sec / per_step if per_step > 0 else 0.0
        iters = agg.mean_iterations.get(ITERATION_KEYS.get(name, ""), None)
        it_s = f"{iters:12.1f}" if iters is not None else f"{'-':>12s}"
        lines.append(f"{name:<20s} {sec:>14.4e} {share:>6.1%} {it_s}")
    if agg.substep_totals_s and per_step > 0:
        other = per_step - accounted
        lines.append(f"{'(unaccounted)':<20s} {other:>14.4e} {other / per_step:>6.1%}")
    lines.append(f"{'total step':<20s} {per_step:>14.4e} {'100.0%':>7s}")
    return "\n".join(lines)


def render_span_tree(tracer, min_seconds: float = 0.0) -> str:
    """Hierarchical span profile: inclusive/exclusive time and counts."""
    lines = [
        f"{'span':<44s} {'incl [s]':>10s} {'excl [s]':>10s} {'calls':>8s}"
    ]
    for child in tracer.root.children.values():
        for depth, node in child.walk():
            if node.total < min_seconds:
                continue
            label = "  " * depth + node.name
            lines.append(
                f"{label:<44s} {node.total:>10.4f} {node.exclusive:>10.4f} "
                f"{node.count:>8d}"
            )
    return "\n".join(lines)


#: metric family -> row title of the robustness view, in display order
_ROBUSTNESS_ROWS = {
    "repro_recovery_step_retries_total": "step retries",
    "repro_recovery_step_failures_total": "step failures",
    "repro_fallback_tier_total": "fallback tier",
    "repro_fallback_escalations_total": "fallback escalations",
    "repro_fallback_exhausted_total": "fallback exhausted",
    "repro_checkpoints_total": "checkpoints",
}
#: the metric families the robustness view reads (a test checks each is
#: registered and catalogued, so a rename cannot silently blank it)
ROBUSTNESS_FAMILIES = tuple(_ROBUSTNESS_ROWS)


def robustness_rows(metrics) -> list[tuple[str, int]]:
    """The fault-tolerance activity of a run as ``(row, count)`` pairs:
    step retries and failures per reason, converged solves per fallback
    tier, escalations and exhaustions per chain, checkpoint writes and
    loads.  Reads a ``metrics`` list — a snapshot document's or a
    run-log summary's — and skips zero samples, so a run that recorded
    none of it yields ``[]``.  The one view behind ``repro report``,
    ``repro monitor`` and the HTML dashboard."""
    by_name = {m["name"]: m for m in metrics or ()}
    rows = []
    for name, title in _ROBUSTNESS_ROWS.items():
        m = by_name.get(name)
        for s in (m or {}).get("samples", ()):
            if s["value"]:
                labels = ", ".join(
                    f"{k}={v}" for k, v in zip(m["labels"], s["labels"])
                )
                rows.append((f"{title} [{labels}]" if labels else title,
                             int(s["value"])))
    return rows


def render_robustness(metrics) -> str:
    """Text form of :func:`robustness_rows`; empty when there are none."""
    rows = robustness_rows(metrics)
    if not rows:
        return ""
    return "\n".join(
        ["robustness:"] + [f"  {row:<52s} {n:>8d}" for row, n in rows]
    )
