"""Chebyshev smoother with point-Jacobi inner preconditioning.

Section 3.4: "we select a Chebyshev smoother with point Jacobi as
preconditioner, using a polynomial degree of three with three
matrix-vector products for pre- and postsmoothing".  The eigenvalue
range is set from a CG-Lanczos estimate of the largest eigenvalue of
``D^{-1} A`` (the deal.II strategy); the smoothing interval is
``[lambda_max / smoothing_range, lambda_max * 1.2]``.

Chebyshev smoothing only needs matrix-vector products and vector
updates, making it the throughput-dominated kernel whose DoF/s are
reported in Figure 6 (left) — in single precision inside the V-cycle.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import TRACER
from ..telemetry.metrics import METRICS
from .jacobi import JacobiPreconditioner
from .krylov import lanczos_max_eigenvalue

# smoothers are labeled by operator size: the MG hierarchy builds one
# smoother per level, and n_dofs identifies the level without coupling
# this module to the multigrid's level names
_CHEB_LAMBDA_MAX = METRICS.gauge(
    "repro_chebyshev_lambda_max",
    "upper end of the Chebyshev smoothing interval (eig_margin x the "
    "CG-Lanczos estimate of lambda_max(D^-1 A))",
    labels=("dofs",),
)
_CHEB_LAMBDA_MIN = METRICS.gauge(
    "repro_chebyshev_lambda_min",
    "lower end of the Chebyshev smoothing interval "
    "(lambda_max / smoothing_range)",
    labels=("dofs",),
)


def _iadd(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``x += d`` when dtype-preserving, else the promoting ``x + d`` —
    bitwise identical to the allocating recurrence either way (a mixed
    float32/float64 pair must promote exactly as ``x + d`` would)."""
    if x.dtype == np.result_type(x.dtype, d.dtype):
        x += d
        return x
    return x + d


def _isub(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    if x.dtype == np.result_type(x.dtype, d.dtype):
        x -= d
        return x
    return x - d


class ChebyshevSmoother:
    """Chebyshev-accelerated Jacobi iteration of fixed polynomial degree.

    Parameters
    ----------
    op:
        Operator with ``vmult`` and ``diagonal``.
    degree:
        Number of matrix-vector products per smoothing application
        (paper: 3).
    smoothing_range:
        Ratio between the largest and smallest eigenvalue targeted by the
        smoother; only the upper ``1/smoothing_range`` fraction of the
        spectrum is damped (multigrid handles the rest).
    eig_margin:
        Safety factor on the estimated lambda_max (deal.II uses 1.2).
    """

    def __init__(
        self,
        op,
        degree: int = 3,
        smoothing_range: float = 15.0,
        eig_margin: float = 1.2,
        lanczos_iterations: int = 12,
        jacobi: JacobiPreconditioner | None = None,
    ) -> None:
        if degree < 1:
            raise ValueError("smoother degree must be >= 1")
        self.op = op
        self.degree = degree
        # the Jacobi inverse diagonal follows the operator's compute
        # dtype: a float64 inv_diag inside a float32 V-cycle would
        # silently promote every smoothing sweep back to double
        self.jacobi = jacobi or JacobiPreconditioner(
            op, dtype=getattr(op, "dtype", np.float64)
        )
        lam_max = lanczos_max_eigenvalue(
            op, self.jacobi, n_iter=lanczos_iterations, n=self.jacobi.n_dofs
        )
        self.lambda_max = eig_margin * lam_max
        self.lambda_min = lam_max / smoothing_range
        self.theta = 0.5 * (self.lambda_max + self.lambda_min)
        self.delta = 0.5 * (self.lambda_max - self.lambda_min)
        self._buffers: dict = {}
        if METRICS.enabled:
            dofs = str(self.jacobi.n_dofs)
            _CHEB_LAMBDA_MAX.labels(dofs).set(self.lambda_max)
            _CHEB_LAMBDA_MIN.labels(dofs).set(self.lambda_min)

    def _jacobi_buffer(self, r: np.ndarray) -> np.ndarray:
        """Reusable output buffer for ``P.vmult(r, out=...)`` in the
        promoted result dtype (keyed by shape and dtype)."""
        dt = np.result_type(r.dtype, self.jacobi.inv_diag.dtype)
        key = (r.shape, dt.str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(r.shape, dtype=dt)
            self._buffers[key] = buf
        return buf

    @property
    def n_dofs(self) -> int:
        return self.jacobi.n_dofs

    def smooth(self, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """Apply ``degree`` Chebyshev iterations to ``A x = b`` starting
        from ``x`` (zero if omitted); returns the smoothed iterate.

        The three-term recurrence updates ``x``, ``r``, and ``d`` in
        place (a caller-provided ``x`` is never mutated — the first
        update copies out of it), with a reusable buffer for the Jacobi
        product — the steady-state loop performs no vector allocations
        beyond the operator application itself, and stays bitwise
        identical to the allocating form of the recurrence.
        """
        op, P = self.op, self.jacobi
        if not TRACER.enabled:
            return self._smooth(op, P, b, x)
        with TRACER.span("chebyshev"):
            # own vector-update work on top of the (self-annotating)
            # operator and Jacobi applications: ~6 Flop/DoF/iteration
            from ..perf.flops import chebyshev_iteration_flops

            n = b.size
            TRACER.annotate(
                flops=float(self.degree * chebyshev_iteration_flops(self.degree, n)),
                bytes=float(self.degree * 4 * b.dtype.itemsize * n),
                dofs=float(n),
            )
            return self._smooth(op, P, b, x)

    def _smooth(self, op, P, b: np.ndarray, x: np.ndarray | None) -> np.ndarray:
        theta, delta = self.theta, self.delta
        if x is None:
            x = np.zeros_like(b)
            r = b.copy()
            x_owned = True
        else:
            r = b - op.vmult(x)
            x_owned = False
        sigma = theta / delta
        rho_old = 1.0 / sigma
        d = P.vmult(r)
        d /= theta
        x = _iadd(x, d) if x_owned else x + d
        for _ in range(1, self.degree):
            rho = 1.0 / (2.0 * sigma - rho_old)
            r = _isub(r, op.vmult(d))
            # d <- (rho rho_old) d + (2 rho / delta) P r, without the two
            # temporaries (addition of identical summands is bitwise
            # insensitive to the in-place rewrite)
            d *= rho * rho_old
            z = P.vmult(r, out=self._jacobi_buffer(r))
            z *= 2.0 * rho / delta
            d += z
            x = _iadd(x, d)
            rho_old = rho
        return x

    def vmult(self, r: np.ndarray) -> np.ndarray:
        """Preconditioner interface: one smoothing pass from zero."""
        return self.smooth(r)

    def error_amplification(self, lam: float) -> float:
        """|Chebyshev error polynomial| at eigenvalue ``lam`` — used by
        tests to verify damping of the targeted spectrum."""
        t = (self.theta - lam) / self.delta
        t0 = self.theta / self.delta
        # Chebyshev polynomials via the stable recurrence (|t| may exceed 1)
        def cheb(k, v):
            a, b = 1.0, v
            if k == 0:
                return a
            for _ in range(k - 1):
                a, b = b, 2 * v * b - a
            return b

        return abs(cheb(self.degree, t) / cheb(self.degree, t0))
