"""Krylov solvers: (preconditioned) conjugate gradients.

The convergence criterion follows the paper: the norm of the
*unpreconditioned* residual relative to the right-hand side norm
(footnote 4 of the paper), with the common multigrid-analysis tolerance
``1e-10`` in the solver studies and the relaxed ``1e-3`` in the
application runs (enabled by time extrapolation of the initial guess).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import TRACER
from ..telemetry.metrics import ITERATION_BUCKETS, METRICS, REDUCTION_BUCKETS

# module-level metric handles (a single attribute check while disabled)
_CG_SOLVES = METRICS.counter(
    "repro_cg_solves_total", "CG solves started, by call-site label",
    labels=("solve",),
)
_CG_ITERATIONS = METRICS.histogram(
    "repro_cg_iterations", "CG iterations per solve",
    buckets=ITERATION_BUCKETS, labels=("solve",),
)
_CG_FAILURE_REASON = METRICS.counter(
    "repro_cg_failure_reason_total",
    "CG outcomes per call site ('none' = converged); the per-label sum "
    "equals repro_cg_solves_total",
    labels=("solve", "reason"),
)
_CG_REDUCTION = METRICS.histogram(
    "repro_cg_residual_reduction",
    "geometric-mean residual reduction per CG iteration",
    buckets=REDUCTION_BUCKETS, labels=("solve",),
)
_CG_FINAL_RESIDUAL = METRICS.gauge(
    "repro_cg_last_relative_residual",
    "relative residual of the most recent CG solve",
    labels=("solve",),
)


@dataclass
class SolverResult:
    """Outcome of an iterative solve.

    A failed solve never raises out of the iteration: ``converged`` is
    False and ``failure_reason`` is one of

    * ``"nan_residual"`` — a non-finite residual (or right-hand side /
      preconditioner output) was encountered,
    * ``"max_iterations"`` — the iteration budget ran out,
    * ``"breakdown"`` — the operator turned out not to be SPD
      (``p^T A p <= 0``).

    Callers branch on the result; the fault-tolerant run harness
    (:mod:`repro.robustness`) uses the reason to pick a fallback tier.
    ``tier`` is stamped by the fallback chain with the name of the
    preconditioner tier that produced this result."""

    x: np.ndarray
    n_iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    failure_reason: str | None = None
    tier: str = ""
    #: per-member iteration counts of an ensemble (batched) solve —
    #: members that converge early stop accumulating; None for flat solves
    member_iterations: list[int] | None = None

    @property
    def reduction_rate(self) -> float:
        """Geometric-mean residual reduction per iteration.

        A solve whose initial residual already met the tolerance (zero
        iterations) reports 0.0 — instant convergence; a solve that ran
        out of iterations without recording a second residual reports
        1.0 — no progress.  With at least one iteration the actual
        reduction is returned, including the one-step ``r1 / r0`` of a
        single-iteration solve."""
        if len(self.residuals) < 2 or self.residuals[0] == 0:
            return 0.0 if self.converged else 1.0
        return (self.residuals[-1] / self.residuals[0]) ** (1.0 / (len(self.residuals) - 1))


class IdentityPreconditioner:
    def vmult(self, r: np.ndarray) -> np.ndarray:
        return r


def conjugate_gradient(
    op,
    b: np.ndarray,
    preconditioner=None,
    tol: float = 1e-10,
    abs_tol: float = 0.0,
    max_iter: int = 1000,
    x0: np.ndarray | None = None,
    name: str = "",
    dtype=np.float64,
) -> SolverResult:
    """Solve ``A x = b`` for SPD ``A`` given by ``op.vmult``.

    ``preconditioner.vmult`` applies M^{-1} (e.g. a multigrid V-cycle run
    in single precision — the mixed-precision strategy of Section 3.4:
    the outer iteration and residuals stay in double precision).

    ``dtype`` is the storage dtype of the iteration vectors.  The default
    double precision matches the paper's outer pressure iteration; the
    well-conditioned viscous/penalty solves may pass ``float32`` to run
    end-to-end in single precision.  Scalar reductions (norms, ``r @ z``)
    always accumulate through Python floats, i.e. in double.

    ``name`` labels this solve in the telemetry span tree and metrics
    (e.g. ``"pressure"``); unnamed solves report under plain ``cg``.
    """
    label = f"cg[{name}]" if name else "cg"
    with TRACER.span(label):
        result = _iterate(op, b, preconditioner, tol, abs_tol, max_iter, x0, dtype)
    # every solve records a failure_reason outcome ('none' on success),
    # so the per-call-site reason counters always sum to the solve count
    reason = result.failure_reason or "none"
    first, last = result.residuals[0], result.residuals[-1]
    if METRICS.enabled:
        site = name or "unnamed"
        _CG_SOLVES.labels(site).inc()
        _CG_ITERATIONS.labels(site).observe(result.n_iterations)
        _CG_FAILURE_REASON.labels((site, reason)).inc()
        _CG_REDUCTION.labels(site).observe(result.reduction_rate)
        if first > 0:
            _CG_FINAL_RESIDUAL.labels(site).set(last / first)
    return result


def _per_member(reduce, *vectors) -> np.ndarray:
    """``reduce(*(v[e] for v in vectors))`` for every member, as a
    float64 array of shape ``lead``.  Each member takes the reduction a
    flat solve takes (BLAS ``r @ z``, ``np.linalg.norm(r)``), so ``(1, n)``
    is ``(n,)`` and member ``e`` of a batch is bit for bit its solo solve;
    a fused ``(r * z).sum(axis=-1)`` rounds differently."""
    n = vectors[0].shape[-1]
    rows = zip(*(v.reshape(-1, n) for v in vectors))
    return np.array([float(reduce(*row)) for row in rows]).reshape(
        vectors[0].shape[:-1]
    )


def _iterate(op, b, preconditioner, tol, abs_tol, max_iter, x0, dtype) -> SolverResult:
    """The PCG iteration on ``(*lead, n)`` states, in lockstep: members
    share every operator and preconditioner application, and their
    scalars (``alpha``, ``beta``, norms — shape ``lead``) are masked so a
    converged or failed member freezes in place.  ``residuals`` records
    the worst member per iteration, ``member_iterations`` each member's
    own count and ``n_iterations`` the largest of them."""
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    lead = b.shape[:-1]
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=dtype)
    r = b - op.vmult(x) if x0 is not None else b.copy()
    b_norm = _per_member(np.linalg.norm, b)
    threshold = np.maximum(tol * b_norm, abs_tol)
    res = _per_member(np.linalg.norm, r)
    residuals = [float(res.max())]
    iterations = np.zeros(lead, dtype=int)

    def result(converged: bool, failure: str | None = None) -> SolverResult:
        return SolverResult(
            x, int(iterations.max()), converged, residuals, failure,
            member_iterations=iterations.tolist() if lead else None,
        )

    if not np.isfinite(res).all():
        # a poisoned right-hand side or initial guess: no iteration can
        # recover from this, report instead of looping to max_iter
        return result(False, "nan_residual")
    active = (res > threshold) & (b_norm > 0.0)
    if not active.any():
        return result(True)
    M = preconditioner or IdentityPreconditioner()
    z = np.asarray(M.vmult(r), dtype=dtype)
    p = z.copy()
    rz = _per_member(operator.matmul, r, z)
    failure: str | None = None
    for _ in range(max_iter):
        Ap = op.vmult(p)
        pAp = _per_member(operator.matmul, p, Ap)
        spd = np.isfinite(pAp) & (pAp > 0)
        if (active & ~spd).any():
            # NaN/inf from the operator or preconditioner (e.g. an
            # overflowed single-precision V-cycle), or an operator that is
            # not SPD: the member stops at its last finite iterate.  A
            # non-finite member's r and p are zeroed — masking alone
            # leaves 0 * NaN to poison x
            bad = active & ~np.isfinite(pAp)
            failure = "breakdown" if (active & ~spd & ~bad).any() else "nan_residual"
            r[bad] = p[bad] = 0
            Ap = np.where(bad[..., None], 0, Ap)
            active = active & spd
            if not active.any():
                return result(False, failure)
        # inactive members get alpha = beta = 0 and freeze; the scalars
        # are rounded to the vectors' dtype as a flat solve's floats are
        alpha = np.divide(rz, pAp, out=np.zeros(lead, dtype), where=active)
        x += alpha[..., None] * p
        r -= alpha[..., None] * Ap
        iterations += active
        res = _per_member(np.linalg.norm, r)
        residuals.append(float(res.max()))
        if not np.isfinite(res).all():
            failure = "nan_residual"
            nan_members = ~np.isfinite(res)
            r[nan_members] = p[nan_members] = 0
            active = active & ~nan_members
        active = active & (res > threshold)
        if not active.any():
            return result(failure is None, failure)
        z = np.asarray(M.vmult(r), dtype=dtype)
        rz_new = _per_member(operator.matmul, r, z)
        beta = np.divide(rz_new, rz, out=np.zeros(lead, dtype), where=active)
        # p <- z + beta p without a temporary (IEEE addition commutes
        # bitwise, so this matches `z + beta * p` exactly); an inactive
        # member's p = z goes nowhere, its alpha is 0
        p *= beta[..., None]
        p += z
        rz = rz_new
    return result(False, failure or "max_iterations")


def lanczos_max_eigenvalue(op, preconditioner=None, n_iter: int = 12,
                           seed: int = 42, n: int | None = None) -> float:
    """Estimate the largest eigenvalue of ``M^{-1} A`` by the CG-Lanczos
    connection (the deal.II strategy for setting the Chebyshev smoother
    range).  ``n`` defaults to ``op.n_dofs``."""
    n = n or op.n_dofs
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    M = preconditioner or IdentityPreconditioner()
    x = np.zeros(n)
    r = b.copy()
    z = np.asarray(M.vmult(r))
    p = z.copy()
    rz = float(r @ z)
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(n_iter):
        Ap = op.vmult(p)
        pAp = float(p @ Ap)
        if pAp <= 0 or rz <= 0:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = np.asarray(M.vmult(r))
        rz_new = float(r @ z)
        if rz_new <= 1e-300:
            alphas.append(alpha)
            betas.append(0.0)
            break
        beta = rz_new / rz
        alphas.append(alpha)
        betas.append(beta)
        p = z + beta * p
        rz = rz_new
    if not alphas:
        return 1.0
    # tridiagonal Lanczos matrix from CG coefficients
    m = len(alphas)
    T = np.zeros((m, m))
    T[0, 0] = 1.0 / alphas[0]
    for i in range(1, m):
        T[i, i] = 1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
        off = np.sqrt(max(betas[i - 1], 0.0)) / alphas[i - 1]
        T[i, i - 1] = off
        T[i - 1, i] = off
    return float(np.linalg.eigvalsh(T).max())
