"""One-dimensional Lagrange bases and the matrices used by sum factorization.

A scalar tensor-product shape function on the unit cube is
``phi_{ijk}(x, y, z) = l_i(x) l_j(y) l_k(z)`` with 1D Lagrange polynomials
``l_i`` on a set of nodal points (Gauss–Lobatto by default).  All matrices
needed by the matrix-free kernels couple only in one dimension:

* ``interp``  — N_ij = l_j(q_i): values of basis functions at quadrature
  points (the 1D factor of the operator ``I_e`` in Eq. (7) of the paper),
* ``grad``    — D_ij = l'_j(q_i): reference-coordinate derivatives,
* ``face values / gradients`` at the interval end points 0 and 1,
* embedding matrices between polynomial degrees (p-multigrid transfer)
  and between an interval and its two halves (h-multigrid transfer).

The *change of basis* optimization of Section 3.1 (Kronbichler & Kormann
2019) transforms nodal coefficients into a Lagrange basis collocated at
the quadrature points, making the interpolation matrix the identity; it is
realised by :func:`change_of_basis_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .backend import DEFAULT_DTYPE
from .quadrature import QuadratureRule, gauss, gauss_lobatto


def lagrange_values(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate all Lagrange polynomials on ``nodes`` at points ``x``.

    Returns shape ``(len(x), len(nodes))`` with entry ``[q, j] = l_j(x_q)``.
    Uses the stable barycentric formulation.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = nodes.size
    # barycentric weights
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    wbar = 1.0 / diff.prod(axis=1)
    out = np.empty((x.size, n))
    for q, xq in enumerate(x):
        d = xq - nodes
        near = np.nonzero(np.abs(d) < 1e-14)[0]
        if near.size:
            row = np.zeros(n)
            row[near[0]] = 1.0
        else:
            t = wbar / d
            row = t / t.sum()
        out[q] = row
    return out


def lagrange_derivatives(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate first derivatives of the Lagrange polynomials at ``x``.

    Returns shape ``(len(x), len(nodes))``.  Away from nodes the product
    rule gives ``l_j'(x) = l_j(x) * sum_{k != j} 1 / (x - x_k)``; at a node
    the exact nodal differentiation matrix built from barycentric weights
    is used (both expressions are exact for polynomials, so no accuracy is
    lost by branching).
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = nodes.size
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    wbar = 1.0 / diff.prod(axis=1)

    # Nodal differentiation matrix D_ij = l'_j(node_i)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (wbar[j] / wbar[i]) / (nodes[i] - nodes[j])
    np.fill_diagonal(D, -D.sum(axis=1))

    out = np.empty((x.size, n))
    # Snap to the exact nodal branch whenever x is within 1e-12 of a node:
    # the barycentric product-rule form loses all digits to cancellation
    # when one of the 1/(x - x_k) terms blows up.
    for q, xq in enumerate(x):
        d = xq - nodes
        near = np.nonzero(np.abs(d) < 1e-12)[0]
        if near.size:
            out[q] = D[near[0]]
        else:
            inv = 1.0 / d
            t = wbar * inv
            l_at_x = t / t.sum()
            out[q] = l_at_x * (inv.sum() - inv)
    return out


@dataclass(frozen=True)
class LagrangeBasis1D:
    """Lagrange basis of degree ``degree`` on prescribed 1D nodes in [0, 1]."""

    degree: int
    nodes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("polynomial degree must be non-negative")
        nodes = self.nodes
        if nodes is None:
            if self.degree == 0:
                nodes = np.array([0.5])
            else:
                nodes = gauss_lobatto(self.degree + 1).points
        nodes = np.asarray(nodes, dtype=float)
        if nodes.size != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} nodes, got {nodes.size}"
            )
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.degree + 1

    def values(self, x: np.ndarray) -> np.ndarray:
        """Shape ``(len(x), n)``: basis values at ``x``."""
        return lagrange_values(self.nodes, x)

    def derivatives(self, x: np.ndarray) -> np.ndarray:
        """Shape ``(len(x), n)``: basis derivatives at ``x``."""
        return lagrange_derivatives(self.nodes, x)


@dataclass(frozen=True)
class ShapeMatrices:
    """All 1D matrices consumed by the sum-factorization kernels.

    Attributes
    ----------
    interp:     ``(n_q, n)``  basis values at quadrature points.
    grad:       ``(n_q, n)``  basis derivatives at quadrature points.
    face_value: ``(2, n)``    basis values at interval ends {0, 1}.
    face_grad:  ``(2, n)``    basis derivatives at interval ends.
    quadrature: the 1D rule the matrices were built for.
    basis:      the underlying 1D Lagrange basis.
    """

    interp: np.ndarray
    grad: np.ndarray
    face_value: np.ndarray
    face_grad: np.ndarray
    quadrature: QuadratureRule
    basis: LagrangeBasis1D


@lru_cache(maxsize=128)
def shape_matrices(degree: int, n_q_points: int | None = None,
                   nodes: str = "gauss_lobatto") -> ShapeMatrices:
    """Build (and cache) the 1D shape matrices for a given degree.

    Parameters
    ----------
    degree:
        Polynomial degree ``k`` of the 1D basis.
    n_q_points:
        Number of Gauss points; default ``k + 1`` (the paper's standard
        choice; the convective term may use ``k + (k + 2) // 2`` for
        over-integration).
    nodes:
        ``"gauss_lobatto"`` (default nodal points) or ``"gauss"`` for a
        basis collocated at Gauss quadrature points (the post
        change-of-basis representation).
    """
    if n_q_points is None:
        n_q_points = degree + 1
    if nodes == "gauss_lobatto":
        basis = LagrangeBasis1D(degree)
    elif nodes == "gauss":
        basis = LagrangeBasis1D(degree, nodes=gauss(degree + 1).points)
    else:
        raise ValueError(f"unknown node family {nodes!r}")
    rule = gauss(n_q_points)
    ends = np.array([0.0, 1.0])
    return ShapeMatrices(
        interp=basis.values(rule.points),
        grad=basis.derivatives(rule.points),
        face_value=basis.values(ends),
        face_grad=basis.derivatives(ends),
        quadrature=rule,
        basis=basis,
    )


@lru_cache(maxsize=128)
def _cast_shape_matrices(degree: int, n_q_points: int | None, nodes: str,
                         dtype_name: str) -> ShapeMatrices:
    sm = shape_matrices(degree, n_q_points, nodes)
    dt = np.dtype(dtype_name)
    return ShapeMatrices(
        interp=sm.interp.astype(dt),
        grad=sm.grad.astype(dt),
        face_value=sm.face_value.astype(dt),
        face_grad=sm.face_grad.astype(dt),
        quadrature=sm.quadrature,
        basis=sm.basis,
    )


def shape_matrices_for_dtype(degree: int, n_q_points: int | None = None,
                             nodes: str = "gauss_lobatto",
                             dtype=None) -> ShapeMatrices:
    """Shape matrices cast to a compute dtype (default:
    :data:`repro.core.backend.DEFAULT_DTYPE`).

    Tabulation always happens in double precision — barycentric weights
    and nodal differentiation are ill-conditioned in float32 — and the
    finished factors are cast *once* and cached.  This is how the
    single-precision path gets float32 1D factors without ever
    re-deriving them in reduced precision, and without the float64
    masters silently promoting float32 cell data.
    """
    dt = np.dtype(dtype) if dtype is not None else DEFAULT_DTYPE
    if dt == np.float64:
        return shape_matrices(degree, n_q_points, nodes)
    return _cast_shape_matrices(degree, n_q_points, nodes, dt.name)


def change_of_basis_matrix(degree: int) -> np.ndarray:
    """Matrix mapping Gauss–Lobatto nodal coefficients to coefficients of
    the Lagrange basis collocated at the ``degree + 1`` Gauss points.

    After this transform the interpolation matrix to quadrature points is
    the identity, saving one tensor contraction per direction — the
    "change of basis" Flop optimization of Section 3.1.
    """
    gl = LagrangeBasis1D(degree)
    return gl.values(gauss(degree + 1).points)


def embedding_matrix(coarse_degree: int, fine_degree: int) -> np.ndarray:
    """Polynomial embedding P^{coarse} -> P^{fine} on [0, 1].

    Shape ``(fine_degree + 1, coarse_degree + 1)``; used by the
    p-multigrid prolongation (degree bisection in the hybrid multigrid).
    """
    if fine_degree < coarse_degree:
        raise ValueError("fine degree must be >= coarse degree")
    coarse = LagrangeBasis1D(coarse_degree)
    fine = LagrangeBasis1D(fine_degree)
    return coarse.values(fine.nodes)


def subinterval_matrix(degree: int, child: int) -> np.ndarray:
    """Embedding of P^degree on [0,1] into P^degree on one half interval.

    ``child = 0`` maps to [0, 1/2], ``child = 1`` to [1/2, 1].  Evaluating
    parent basis functions at the child's nodes yields the 1D factor of
    the h-multigrid prolongation (global-coarsening transfer).
    """
    if child not in (0, 1):
        raise ValueError("child must be 0 or 1")
    basis = LagrangeBasis1D(degree)
    child_nodes = 0.5 * basis.nodes + 0.5 * child
    return basis.values(child_nodes)


def mass_matrix_1d(degree: int, n_q_points: int | None = None) -> np.ndarray:
    """Exact 1D mass matrix of the Gauss–Lobatto Lagrange basis on [0,1]."""
    sm = shape_matrices(degree, n_q_points or degree + 1)
    W = sm.quadrature.weights
    return sm.interp.T @ (W[:, None] * sm.interp)
