"""The high-order dual splitting scheme (Karniadakis et al. 1991),
Eqs. (1)-(5) of the paper, with variable-step BDF coefficients.

Each time step performs

1. **explicit convective step** — BDF history combination plus
   extrapolated convective term, inverted by the fast mass inverse;
2. **pressure Poisson step** — hybrid-multigrid-preconditioned CG
   (the dominant cost and the paper's central solver target);
3. **explicit projection step** — pressure-gradient correction;
4. **implicit viscous step** — Helmholtz solve, inverse-mass
   preconditioned CG;
5. **penalty step** — divergence/continuity penalty solve, inverse-mass
   preconditioned CG.

Initial pressure/velocity guesses for the iterative solves are
extrapolated from previous steps, which is what allows the relaxed
``1e-3`` tolerances of the application runs (Section 5.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..solvers.krylov import conjugate_gradient
from ..telemetry import TRACER
from .bdf import bdf_coefficients


@dataclass
class StepStatistics:
    """Per-time-step solver record: what the run log stores per step.

    ``wall_time`` is always measured (two clock reads per step);
    ``substep_seconds`` is filled from the tracing spans and stays empty
    while the global tracer is disabled.  ``cfl`` is the realized CFL
    number, stamped by the driving solver when it knows the velocity
    scale (NaN otherwise).  ``pressure_residual`` is the final relative
    residual of the pressure Poisson solve — the per-step convergence
    signal run dashboards plot.  The ``member_*`` fields have the shape
    of the state's leading axes (``()`` for a flat run)."""

    dt: float
    t: float
    pressure_iterations: int
    viscous_iterations: int
    penalty_iterations: int
    cfl: float = float("nan")
    wall_time: float = 0.0
    pressure_residual: float = float("nan")
    substep_seconds: dict[str, float] = field(default_factory=dict)
    member_cfl: np.ndarray | None = None
    member_pressure_iterations: np.ndarray | None = None


@dataclass
class SplittingOperators:
    """Operator bundle the scheme drives (duck-typed, see ns.solver).

    ``pressure_neumann_rhs(t_new, u_history, t_history, coeffs, dt)``
    assembles the *consistent* pressure Neumann boundary term of the
    high-order dual splitting (Karniadakis et al. 1991; Fehn et al.
    2017): ``dp/dn = -n . (dg/dt + extrapolated [conv + nu curl(omega)])``
    on velocity-Dirichlet boundaries — without it the scheme degrades to
    first order in time.  ``pressure_dirichlet_rhs(t)`` supplies the weak
    Dirichlet data of the pressure Poisson operator (PEEP + dp at the
    trachea, windkessel pressures at the outlets)."""

    mass: object
    inverse_mass: object
    convective: object
    divergence: object
    gradient: object
    helmholtz: object
    penalty_step: object
    pressure_poisson: object
    pressure_preconditioner: object
    body_force: object | None = None  # callable(t) -> assembled vector
    pressure_neumann_rhs: object | None = None
    pressure_dirichlet_rhs: object | None = None


class DualSplittingScheme:
    def __init__(
        self,
        ops: SplittingOperators,
        order: int = 2,
        pressure_tol: float = 1e-6,
        viscous_tol: float = 1e-6,
        penalty_tol: float = 1e-6,
        pressure_has_dirichlet: bool = True,
        max_solver_iterations: int = 200,
        pressure_fallback=None,
        state_dtype=np.float64,
    ) -> None:
        """``pressure_fallback`` (optional) is a duck-typed escalation
        chain with ``solve(op, b, tol, max_iter, x0) -> SolverResult``
        (see :class:`repro.robustness.recovery.PressureFallbackChain`);
        when set, it owns the pressure Poisson solve instead of the
        plain preconditioned CG call.

        ``state_dtype`` is the storage dtype of the history fields and
        the viscous/penalty iteration vectors (pass ``float32`` with
        operators cast via
        :func:`repro.solvers.multigrid.operator_to_dtype` for the
        end-to-end single-precision forward path).  The outer pressure
        Poisson CG always iterates in double precision — the paper's
        mixed-precision split (Section 3.4) — and its solution is cast
        back to ``state_dtype`` for the projection step."""
        self.ops = ops
        self.order = order
        self.pressure_tol = pressure_tol
        self.viscous_tol = viscous_tol
        self.penalty_tol = penalty_tol
        self.pressure_has_dirichlet = pressure_has_dirichlet
        self.max_iter = max_solver_iterations
        self.pressure_fallback = pressure_fallback
        self.state_dtype = np.dtype(state_dtype)
        self.u_history: list[np.ndarray] = []
        self.conv_history: list[np.ndarray] = []
        self.p_history: list[np.ndarray] = []
        self.dt_history: list[float] = []
        self.t = 0.0
        self.statistics: list[StepStatistics] = []

    # ------------------------------------------------------------------
    def initialize(self, u0: np.ndarray, t0: float = 0.0) -> None:
        self.t = t0
        self.u_history = [np.array(u0, dtype=self.state_dtype)]
        self.conv_history = [self.ops.convective.apply(self.u_history[0], t0)]
        self.p_history = []
        self.dt_history = []
        self.statistics = []

    def _project_mean_free(self, v: np.ndarray) -> np.ndarray:
        """Remove each member's nullspace component (pure-Neumann
        pressure)."""
        ones = np.ones(v.shape[-1], dtype=v.dtype)
        return v - ((v @ ones) / (ones @ ones))[..., None] * ones

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture the rollback state of the scheme (O(history) shallow
        copies: ``step`` never mutates history arrays in place, it only
        prepends freshly allocated iterates)."""
        return {
            "t": self.t,
            "u": list(self.u_history),
            "conv": list(self.conv_history),
            "p": list(self.p_history),
            "dt": list(self.dt_history),
            "n_stats": len(self.statistics),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Roll the scheme back to a :meth:`snapshot_state` capture
        (discarding the statistics of any failed steps since)."""
        self.t = snapshot["t"]
        self.u_history = list(snapshot["u"])
        self.conv_history = list(snapshot["conv"])
        self.p_history = list(snapshot["p"])
        self.dt_history = list(snapshot["dt"])
        del self.statistics[snapshot["n_stats"]:]

    # ------------------------------------------------------------------
    def step(self, dt: float) -> StepStatistics:
        ops = self.ops
        if dt <= 0:
            raise ValueError(f"time step must be positive, got {dt}")
        if self.dt_history and dt < 1e-8 * self.dt_history[0]:
            raise ValueError(
                f"step size {dt:.3e} is vanishing relative to the previous "
                f"{self.dt_history[0]:.3e}; the variable-step BDF "
                "coefficients would be ill-conditioned (check end-of-"
                "interval clipping for float accumulation)"
            )
        self.dt_history.insert(0, float(dt))
        order = min(self.order, len(self.u_history))
        coeffs = bdf_coefficients(order, self.dt_history)
        g0 = coeffs.gamma0
        t_new = self.t + dt

        t_step0 = time.perf_counter()
        with TRACER.span("step"):
            # -- 1. explicit convective step (Eq. (1)) -------------------
            with TRACER.span("convective") as sp_conv:
                acc = sum(
                    a * u for a, u in zip(coeffs.alpha, self.u_history[:order])
                )
                conv = sum(
                    b * c for b, c in zip(coeffs.beta, self.conv_history[:order])
                )
                rhs_extra = -conv
                if ops.body_force is not None:
                    rhs_extra = rhs_extra + ops.body_force(t_new)
                u_hat = (acc + dt * ops.inverse_mass.vmult(rhs_extra)) / g0

            # -- 2. pressure Poisson step (Eq. (2)) ----------------------
            with TRACER.span("pressure_poisson") as sp_p:
                b_p = -(g0 / dt) * ops.divergence.apply(
                    u_hat, t_new, interior_trace_everywhere=True
                )
                if ops.pressure_neumann_rhs is not None:
                    t_hist = [
                        self.t - (sum(self.dt_history[1 : i + 1]))
                        for i in range(order)
                    ]
                    b_p = b_p + ops.pressure_neumann_rhs(
                        t_new, self.u_history[:order], t_hist, coeffs, dt
                    )
                if ops.pressure_dirichlet_rhs is not None:
                    b_p = b_p + ops.pressure_dirichlet_rhs(t_new)
                if not self.pressure_has_dirichlet:
                    b_p = self._project_mean_free(b_p)
                if self.p_history:
                    if len(self.p_history) >= 2:
                        p_guess = 2.0 * self.p_history[0] - self.p_history[1]
                    else:
                        p_guess = self.p_history[0].copy()
                else:
                    p_guess = None
                if self.pressure_fallback is not None:
                    res_p = self.pressure_fallback.solve(
                        ops.pressure_poisson,
                        b_p,
                        tol=self.pressure_tol,
                        max_iter=self.max_iter,
                        x0=p_guess,
                    )
                else:
                    res_p = conjugate_gradient(
                        ops.pressure_poisson,
                        b_p,
                        ops.pressure_preconditioner,
                        tol=self.pressure_tol,
                        max_iter=self.max_iter,
                        x0=p_guess,
                        name="pressure",
                    )
                # the outer pressure iteration ran in double; the state
                # (and the projection step feeding off it) lives at the
                # configured compute dtype
                p_new = np.asarray(res_p.x, dtype=self.state_dtype)
                if not self.pressure_has_dirichlet:
                    p_new = self._project_mean_free(p_new)

            # -- 3. explicit projection step (Eq. (3)) -------------------
            with TRACER.span("projection") as sp_proj:
                grad_p = ops.gradient.apply(p_new, t_new)
                u_hathat = u_hat - (dt / g0) * ops.inverse_mass.vmult(grad_p)

            # -- 4. implicit viscous step (Eq. (4)) ----------------------
            with TRACER.span("helmholtz") as sp_visc:
                ops.helmholtz.set_time_factor(g0 / dt)
                b_v = (g0 / dt) * ops.mass.vmult(u_hathat)
                b_v = b_v + ops.helmholtz.boundary_rhs(t_new)
                res_v = conjugate_gradient(
                    ops.helmholtz,
                    b_v,
                    ops.inverse_mass,
                    tol=self.viscous_tol,
                    max_iter=self.max_iter,
                    x0=u_hathat,
                    name="viscous",
                    dtype=self.state_dtype,
                )
                u_visc = res_v.x

            # -- 5. penalty step (Eq. (5)) -------------------------------
            with TRACER.span("penalty") as sp_pen:
                ops.penalty_step.penalty.update_parameters(u_visc)
                ops.penalty_step.set_dt(dt)
                b_pen = ops.mass.vmult(u_visc)
                res_pen = conjugate_gradient(
                    ops.penalty_step,
                    b_pen,
                    ops.inverse_mass,
                    tol=self.penalty_tol,
                    max_iter=self.max_iter,
                    x0=u_visc,
                    name="penalty",
                    dtype=self.state_dtype,
                )
                u_new = res_pen.x

            # -- bookkeeping ---------------------------------------------
            self.t = t_new
            self.u_history.insert(0, u_new)
            # convective term of the *new* iterate, reused by the next
            # step's extrapolation — a real sub-step cost, timed on its own
            with TRACER.span("convective_eval") as sp_ceval:
                self.conv_history.insert(0, ops.convective.apply(u_new, t_new))
            self.p_history.insert(0, p_new)
            keep = self.order
            self.u_history = self.u_history[: keep + 1]
            self.conv_history = self.conv_history[: keep + 1]
            self.p_history = self.p_history[:2]
            self.dt_history = self.dt_history[: keep + 1]
        wall = time.perf_counter() - t_step0
        substeps = {}
        if TRACER.enabled:
            substeps = {
                "convective": sp_conv.elapsed,
                "pressure_poisson": sp_p.elapsed,
                "projection": sp_proj.elapsed,
                "helmholtz": sp_visc.elapsed,
                "penalty": sp_pen.elapsed,
                "convective_eval": sp_ceval.elapsed,
            }
        p_res = float("nan")
        if res_p.residuals and res_p.residuals[0] > 0:
            p_res = res_p.residuals[-1] / res_p.residuals[0]
        stats = StepStatistics(
            dt=dt,
            t=t_new,
            pressure_iterations=res_p.n_iterations,
            viscous_iterations=res_v.n_iterations,
            penalty_iterations=res_pen.n_iterations,
            wall_time=wall,
            pressure_residual=p_res,
            substep_seconds=substeps,
            # a flat solve reports no member split
            member_pressure_iterations=np.reshape(
                res_p.member_iterations or res_p.n_iterations, b_p.shape[:-1]
            ),
        )
        self.statistics.append(stats)
        return stats

    @property
    def velocity(self) -> np.ndarray:
        return self.u_history[0]

    @property
    def pressure(self) -> np.ndarray | None:
        return self.p_history[0] if self.p_history else None
