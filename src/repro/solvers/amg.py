"""Smoothed-aggregation algebraic multigrid — the coarse-grid solver.

Substitutes hypre's BoomerAMG (Section 3.4): the hybrid multigrid's
coarsest geometric level (linear continuous elements on the unstructured
coarse mesh, several hundred thousand unknowns for the g = 11 lung) is
handed to an AMG solver run in double precision.  Matching the paper's
configuration, the default coarse solve applies **two V-cycles with a
single sweep of symmetric Gauss–Seidel smoothing**.

The implementation is classical smoothed aggregation (Vaněk et al.):
strength-filtered greedy aggregation, piecewise-constant tentative
prolongator smoothed by one damped-Jacobi step, Galerkin coarse
operators, and a dense direct solve on the coarsest level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# scipy.linalg and scipy.sparse.linalg are imported where the AMG calls
# them, so a process that never builds an AMG does not map them


def strength_graph(A: sp.csr_matrix, theta: float = 0.08) -> sp.csr_matrix:
    """Symmetric strength-of-connection filter:
    keep ``|a_ij| > theta * sqrt(a_ii a_jj)``."""
    d = np.asarray(A.diagonal())
    d = np.where(d > 0, d, 1.0)
    C = A.tocoo(copy=True)
    keep = np.abs(C.data) > theta * np.sqrt(d[C.row] * d[C.col])
    keep &= C.row != C.col
    return sp.csr_matrix(
        (C.data[keep], (C.row[keep], C.col[keep])), shape=A.shape
    )


def aggregate(S: sp.csr_matrix) -> np.ndarray:
    """Greedy aggregation on the strength graph; returns the aggregate
    index of every node (isolated nodes form singleton aggregates)."""
    n = S.shape[0]
    agg = -np.ones(n, dtype=np.int64)
    indptr, indices = S.indptr, S.indices
    next_agg = 0
    # pass 1: seed aggregates from fully unassigned neighborhoods
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if np.all(agg[nbrs] == -1):
            agg[i] = next_agg
            agg[nbrs] = next_agg
            next_agg += 1
    # pass 2: attach leftovers to a neighboring aggregate
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        assigned = nbrs[agg[nbrs] != -1]
        if assigned.size:
            agg[i] = agg[assigned[0]]
        else:
            agg[i] = next_agg
            next_agg += 1
    return agg


def tentative_prolongator(agg: np.ndarray) -> sp.csr_matrix:
    """Piecewise-constant prolongator, columns normalized."""
    n = agg.size
    n_agg = int(agg.max()) + 1 if n else 0
    counts = np.bincount(agg, minlength=n_agg).astype(float)
    vals = 1.0 / np.sqrt(counts[agg])
    return sp.csr_matrix((vals, (np.arange(n), agg)), shape=(n, n_agg))


def estimate_spectral_radius(A: sp.csr_matrix, n_iter: int = 15, seed: int = 7) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[0])
    lam = 1.0
    for _ in range(n_iter):
        y = A @ x
        norm = np.linalg.norm(y)
        if norm == 0:
            return 1.0
        lam = float(x @ y / (x @ x))
        x = y / norm
    return abs(lam)


def gauss_seidel_splitting(A: sp.csr_matrix) -> tuple:
    """``(D + L, U_strict, D + U, L_strict)``, built once per matrix."""
    L = sp.tril(A, format="csr")  # D + strictly lower
    U = sp.triu(A, format="csr")  # D + strictly upper
    return L, A - L, U, A - U


def symmetric_gauss_seidel(split: tuple, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One symmetric Gauss-Seidel sweep (forward then backward): scipy
    triangular solves on a :func:`gauss_seidel_splitting`."""
    import scipy.sparse.linalg as spla

    L, U_strict, U, L_strict = split
    # forward: (D+L) x_new = b - U_strict x
    x = spla.spsolve_triangular(L, b - U_strict @ x, lower=True)
    # backward
    x = spla.spsolve_triangular(U, b - L_strict @ x, lower=False)
    return x


@dataclass
class _Level:
    A: sp.csr_matrix
    P: sp.csr_matrix | None  # to coarser

    def __post_init__(self) -> None:
        self.split = gauss_seidel_splitting(self.A) if self.P is not None else None


class SmoothedAggregationAMG:
    """AMG hierarchy over an assembled sparse SPD matrix.

    ``vmult`` applies ``n_cycles`` V-cycles (default 2, the paper's coarse
    solver setting) as a preconditioner/approximate solve.
    """

    def __init__(
        self,
        A: sp.spmatrix,
        theta: float = 0.08,
        max_coarse: int = 200,
        max_levels: int = 12,
        n_cycles: int = 2,
        omega_factor: float = 4.0 / 3.0,
    ) -> None:
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        self.n_cycles = n_cycles
        self.levels: list[_Level] = []
        while A.shape[0] > max_coarse and len(self.levels) < max_levels - 1:
            S = strength_graph(A, theta)
            agg = aggregate(S)
            P0 = tentative_prolongator(agg)
            if P0.shape[1] >= A.shape[0]:  # aggregation stalled
                break
            dinv = 1.0 / np.maximum(np.asarray(A.diagonal()), 1e-300)
            DinvA = sp.diags(dinv) @ A
            rho = estimate_spectral_radius(DinvA)
            omega = omega_factor / max(rho, 1e-12)
            P = (sp.eye(A.shape[0], format="csr") - omega * DinvA) @ P0
            P = sp.csr_matrix(P)
            self.levels.append(_Level(A=A, P=P))
            A = sp.csr_matrix(P.T @ A @ P)
        self.levels.append(_Level(A=A, P=None))
        self._coarse_dense = np.asarray(A.todense())
        # regularize a singular coarsest matrix (pure-Neumann problems)
        w, _ = np.linalg.eigh(self._coarse_dense)
        if w.min() < 1e-12 * max(w.max(), 1.0):
            self._coarse_dense = self._coarse_dense + np.eye(A.shape[0]) * (
                1e-10 * max(w.max(), 1.0)
            )
        self._coarse_factor = np.linalg.cholesky(self._coarse_dense)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_dofs(self) -> int:
        return self.levels[0].A.shape[0]

    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        """Two triangular solves on the Cholesky factor; a non-finite
        right-hand side comes back non-finite instead of raising."""
        import scipy.linalg as sla

        return sla.cho_solve((self._coarse_factor, True), b, check_finite=False)

    def _vcycle(self, level: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        lev = self.levels[level]
        if lev.P is None:
            return self._coarse_solve(b)
        x = symmetric_gauss_seidel(lev.split, b, x)
        r = b - lev.A @ x
        bc = lev.P.T @ r
        xc = self._vcycle(level + 1, bc, np.zeros_like(bc))
        x = x + lev.P @ xc
        x = symmetric_gauss_seidel(lev.split, b, x)
        return x

    def vmult(self, b: np.ndarray) -> np.ndarray:
        # (*lead, n): the sparse kernels and triangular solves take the
        # members as right-hand-side columns (.T is the identity on a
        # flat vector)
        bt = np.ascontiguousarray(np.asarray(b, dtype=np.float64).T)
        xt = np.zeros_like(bt)
        for _ in range(self.n_cycles):
            xt = self._vcycle(0, bt, xt)
        return np.ascontiguousarray(xt.T)

    def solve(self, b: np.ndarray, tol: float = 1e-10, max_cycles: int = 100):
        """Stand-alone V-cycle iteration to the given relative residual."""
        A = self.levels[0].A
        x = np.zeros_like(b, dtype=np.float64)
        b_norm = np.linalg.norm(b)
        history = [float(b_norm)]
        for _ in range(max_cycles):
            x = self._vcycle(0, b, x)
            res = float(np.linalg.norm(b - A @ x))
            history.append(res)
            if res <= tol * b_norm:
                return x, history
        return x, history
