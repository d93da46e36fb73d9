"""Fault-tolerant time stepping: divergence detection with rollback and
retry, and the deterministic pressure-solver fallback chain.

The failure modes absorbed here are the ones long-horizon runs actually
hit (Fehn et al., arXiv:1806.03095; Franco et al., arXiv:1910.03032):

* a too-aggressive CFL-adaptive step diverges *recoverably* — the BDF
  history of the previous step is still in memory, so the step can be
  rolled back, the step size shrunk, and the step retried;
* the cheap mixed-precision multigrid V-cycle stalls or overflows on a
  hard right-hand side — a more conservative (and more expensive)
  preconditioner tier still converges.

Every recovery action is recorded as a :class:`RecoveryEvent` and, when
the global metric registry is enabled, in the ``repro_recovery_*`` /
``repro_fallback_*`` metric families so ``repro report`` can show a
run's fault history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..solvers.krylov import SolverResult, conjugate_gradient
from ..telemetry.metrics import METRICS
from .config import RobustnessSettings

# module-level metric handles for the fault-tolerance activity
_RECOVERY_RETRIES = METRICS.counter(
    "repro_recovery_step_retries_total",
    "diverged time steps rolled back and retried, by validation reason",
    labels=("reason",),
)
_RECOVERY_FAILURES = METRICS.counter(
    "repro_recovery_step_failures_total",
    "time steps abandoned after the retry budget, by the last validation "
    "reason",
    labels=("reason",),
)
_FALLBACK_TIER = METRICS.counter(
    "repro_fallback_tier_total",
    "converged solves per preconditioner tier of a fallback chain",
    labels=("chain", "tier"),
)
_FALLBACK_ESCALATIONS = METRICS.counter(
    "repro_fallback_escalations_total",
    "solves that needed a tier beyond the primary preconditioner",
    labels=("chain",),
)
_FALLBACK_EXHAUSTED = METRICS.counter(
    "repro_fallback_exhausted_total",
    "solves where every tier of the chain failed",
    labels=("chain",),
)


@dataclass
class RecoveryEvent:
    """One recovery action taken during a run (the fault history)."""

    kind: str  # "step_retry" | "step_failure" | "fallback_escalation"
    t: float
    reason: str = ""
    dt: float = float("nan")
    attempt: int = 0
    detail: str = ""


class StepFailure(RuntimeError):
    """A time step could not be completed within the retry budget.

    Carries the structured context a driver needs to decide what to do
    next (checkpoint and abort, coarsen, alert): the last failure
    ``reason``, the simulated time ``t`` the step started from, the
    last attempted ``dt``, the number of ``attempts`` made, and the
    per-attempt :class:`RecoveryEvent` list."""

    def __init__(
        self,
        reason: str,
        t: float,
        dt: float,
        attempts: int,
        events: list[RecoveryEvent] | None = None,
    ) -> None:
        self.reason = reason
        self.t = t
        self.dt = dt
        self.attempts = attempts
        self.events = list(events or [])
        super().__init__(
            f"time step at t={t:.6e} failed after {attempts} attempt(s) "
            f"(last dt={dt:.3e}): {reason}"
        )


def validate_scheme_state(scheme, prev_energy: float,
                          settings: RobustnessSettings) -> str | None:
    """Check the post-step state of a dual-splitting scheme; returns a
    failure reason or ``None``.

    The freshly cached convective evaluation is validated alongside the
    new velocity and pressure: it feeds the *next* step's extrapolation,
    so a NaN there would silently poison the BDF history after the step
    itself looked fine."""
    u = scheme.u_history[0]
    if not np.isfinite(u).all():
        return "non_finite_velocity"
    p = scheme.p_history[0] if scheme.p_history else None
    if p is not None and not np.isfinite(p).all():
        return "non_finite_pressure"
    if scheme.conv_history and not np.isfinite(scheme.conv_history[0]).all():
        return "non_finite_convective"
    limit = settings.energy_growth_limit
    if limit > 0 and prev_energy > 0:
        energy = state_energy(u)
        if energy > limit * prev_energy:
            return "energy_blowup"
    return None


def state_energy(u: np.ndarray) -> float:
    """``||u||^2`` over the whole ``(*lead, n)`` state (``np.vdot``
    flattens; on a flat vector it is the BLAS dot ``u @ u``)."""
    return float(np.vdot(u, u))


def recoverable_step(
    scheme,
    dt: float,
    settings: RobustnessSettings,
    events: list[RecoveryEvent] | None = None,
):
    """Advance ``scheme`` by one validated step with rollback/retry.

    On a failed validation the scheme is rolled back to its pre-step
    state (the BDF history arrays are never mutated in place, so a
    shallow snapshot suffices), ``dt`` is shrunk by the backoff factor,
    and the step is retried; after ``max_step_retries`` retries a
    :class:`StepFailure` surfaces with the pre-step state restored.
    Returns the :class:`~repro.timeint.dual_splitting.StepStatistics`
    of the successful attempt."""
    snapshot = scheme.snapshot_state()
    u0 = scheme.u_history[0] if scheme.u_history else None
    prev_energy = state_energy(u0) if u0 is not None else 0.0
    dt_try = float(dt)
    reason = ""
    attempts = 0
    for attempt in range(settings.max_step_retries + 1):
        attempts = attempt + 1
        stats = scheme.step(dt_try)
        reason = validate_scheme_state(scheme, prev_energy, settings)
        if reason is None:
            return stats
        scheme.restore_state(snapshot)
        if attempt == settings.max_step_retries:
            break  # budget exhausted: no retry follows this failure
        if METRICS.enabled:
            _RECOVERY_RETRIES.labels(reason).inc()
        if events is not None:
            events.append(
                RecoveryEvent(
                    kind="step_retry",
                    t=scheme.t,
                    reason=reason,
                    dt=dt_try,
                    attempt=attempts,
                )
            )
        dt_try *= settings.dt_backoff
    if METRICS.enabled:
        _RECOVERY_FAILURES.labels(reason).inc()
    last_dt = dt_try
    if events is not None:
        events.append(
            RecoveryEvent(
                kind="step_failure",
                t=scheme.t,
                reason=reason,
                dt=last_dt,
                attempt=attempts,
            )
        )
    raise StepFailure(reason, scheme.t, last_dt, attempts, events)


# ----------------------------------------------------------------------
@dataclass
class FallbackTier:
    """One preconditioner tier of a fallback chain.

    ``make_preconditioner`` is called lazily on first use (a
    double-precision multigrid hierarchy is only built when the cheap
    tier actually fails) and the result is cached by the chain."""

    name: str
    make_preconditioner: Callable[[], object]
    max_iter_scale: float = 1.0


class PressureFallbackChain:
    """Deterministic solver escalation for an SPD (pressure) solve.

    Tiers are tried in order; the first converged tier wins and is
    recorded (``tier_counts``, ``res.tier``, ``repro_fallback_*``).  A
    tier that made finite partial progress warm-starts the next tier;
    a non-finite right-hand side short-circuits the chain, since no
    preconditioner can rescue a poisoned system.  If every tier fails,
    the last (non-converged) :class:`SolverResult` is returned — the
    step-level retry/backoff harness owns that failure."""

    def __init__(self, tiers: list[FallbackTier], name: str = "pressure") -> None:
        if not tiers:
            raise ValueError("a fallback chain needs at least one tier")
        self.name = name
        self.tiers = list(tiers)
        self.tier_counts: dict[str, int] = {t.name: 0 for t in self.tiers}
        self.escalations = 0
        self.events: list[RecoveryEvent] = []
        self._preconditioners: dict[str, object] = {}

    @property
    def tier_names(self) -> list[str]:
        return [t.name for t in self.tiers]

    def preconditioner(self, tier: FallbackTier):
        if tier.name not in self._preconditioners:
            self._preconditioners[tier.name] = tier.make_preconditioner()
        return self._preconditioners[tier.name]

    def solve(
        self,
        op,
        b: np.ndarray,
        tol: float,
        max_iter: int,
        x0: np.ndarray | None = None,
    ) -> SolverResult:
        x_start = x0
        last: SolverResult | None = None
        for i, tier in enumerate(self.tiers):
            # tier 0 keeps the chain's plain name so the primary solve
            # reports under the same telemetry labels as before
            label = self.name if i == 0 else f"{self.name}:{tier.name}"
            res = conjugate_gradient(
                op,
                b,
                self.preconditioner(tier),
                tol=tol,
                max_iter=max(1, int(round(max_iter * tier.max_iter_scale))),
                x0=x_start,
                name=label,
            )
            if res.converged:
                res.tier = tier.name
                self.tier_counts[tier.name] += 1
                if i > 0:
                    self.escalations += 1
                    self.events.append(
                        RecoveryEvent(
                            kind="fallback_escalation",
                            t=float("nan"),
                            reason=last.failure_reason or "" if last else "",
                            detail=tier.name,
                        )
                    )
                if METRICS.enabled:
                    _FALLBACK_TIER.labels((self.name, tier.name)).inc()
                    if i > 0:
                        _FALLBACK_ESCALATIONS.labels(self.name).inc()
                return res
            last = res
            if res.failure_reason == "nan_residual" and not np.isfinite(b).all():
                break  # a poisoned right-hand side cannot be rescued
            # warm-start the next tier from finite partial progress
            x_start = res.x if np.isfinite(res.x).all() else x0
        if METRICS.enabled:
            _FALLBACK_EXHAUSTED.labels(self.name).inc()
        last.tier = ""
        return last


# re-exported for call sites that only need the event type
__all__ = [
    "FallbackTier",
    "PressureFallbackChain",
    "RecoveryEvent",
    "StepFailure",
    "recoverable_step",
    "state_energy",
    "validate_scheme_state",
]
