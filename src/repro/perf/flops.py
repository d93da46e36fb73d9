"""Analytic arithmetic-operation counts of the sum-factorized kernels.

Section 5.1 / Figure 7: "The number of arithmetic operations follows a
slight modification of the data in Table 4 of [Kronbichler & Kormann
2019] ... confirmed to be accurate within a few percent by hardware
performance counters."  We compute the counts directly from the kernel
structure implemented in :mod:`repro.core.sum_factorization` — dense
1D products, the only kind the NumPy kernels run — so the roofline
placement (Figure 7) uses the same arithmetic the code executes.

Conventions: one fused multiply-add counts as 2 Flop; d = 3.
"""

from __future__ import annotations

from dataclasses import dataclass


def flops_apply_1d(n_out: int, n_in: int, n_lines: int) -> int:
    """Flops (one FMA per matrix entry) of a full tensor sweep along one
    dimension: ``n_lines`` independent dense 1D applications."""
    return 2 * n_out * n_in * n_lines


@dataclass(frozen=True)
class OperatorFlops:
    """Per-cell and per-face Flop counts for one polynomial degree."""

    degree: int
    n_q: int
    cell: int
    inner_face: int
    boundary_face: int

    def matvec_total(self, n_cells: int, n_inner_faces: int, n_boundary_faces: int) -> int:
        return (
            self.cell * n_cells
            + self.inner_face * n_inner_faces
            + self.boundary_face * n_boundary_faces
        )


def _interpolation_flops(n: int, nq: int) -> int:
    """The three sweeps interpolating a cell tensor n^3 -> nq^3 (the
    transposed integration costs the same)."""
    return (
        flops_apply_1d(nq, n, n * n)
        + flops_apply_1d(nq, n, n * nq)
        + flops_apply_1d(nq, n, nq * nq)
    )


def laplace_flops(degree: int, n_q: int | None = None, cell_entries: int = 6,
                  face_components: int = 3) -> OperatorFlops:
    """Flop counts of the SIP DG Laplacian evaluation (Eq. (7)).

    Cell part (per cell): the collocation layout of the cell kernel —
    3 interpolation sweeps to the quadrature points plus one n_q x n_q
    collocation-derivative sweep per direction, the same 6 sweeps
    transposed on the way back — and the quadrature-point work (3x3
    symmetric matrix x vector: 9 FMA, 3 multiplies for ``cell_entries =
    3``).  Face part: traces, tangential derivatives (none for
    ``face_components = 1``), metric, flux arithmetic for both sides.
    """
    k = degree
    n = k + 1
    nq = n_q or n
    n2 = n * n
    nq2 = nq * nq

    # -- cell -------------------------------------------------------------
    sweeps = _interpolation_flops(n, nq) + 3 * flops_apply_1d(nq, nq, nq2)
    qwork = 2 * {6: 9, 3: 3}[cell_entries] * nq**3
    cell = 2 * sweeps + qwork

    # -- interior face ------------------------------------------------------
    # per side: value trace (free at GL nodes), normal-derivative trace
    # (1 sweep over n2 lines), one tangential nodal derivative sweep per
    # stored tangential component, interpolation of val + the stored
    # gradient components to quadrature (2 sweeps each), per-point flux
    # (~ 60 Flop/point), and the transposed integration of val+grad.
    per_side_eval = (
        2 * n * n2  # normal-derivative contraction (vector dot per line)
        + (face_components - 1) * flops_apply_1d(n, n, n2)  # tangential nodal derivs
        + (1 + face_components) * (flops_apply_1d(nq, n, n) + flops_apply_1d(nq, n, nq))
    )
    flux = 60 * nq2
    per_side_int = per_side_eval  # transpose costs the same
    inner_face = 2 * (per_side_eval + per_side_int) + flux
    boundary_face = per_side_eval + per_side_int + 40 * nq2
    return OperatorFlops(degree=k, n_q=nq, cell=cell, inner_face=inner_face,
                         boundary_face=boundary_face)


def cg_laplace_flops(degree: int, n_q: int | None = None, cell_entries: int = 6) -> OperatorFlops:
    """Continuous FE Laplacian: cell work only (no face terms); gather /
    scatter indirection is memory, not Flops."""
    lap = laplace_flops(degree, n_q, cell_entries)
    return OperatorFlops(degree=degree, n_q=lap.n_q, cell=lap.cell,
                         inner_face=0, boundary_face=0)


def mass_flops(degree: int, n_q: int | None = None,
               n_components: int = 1) -> int:
    """Flops per cell of one mass mat-vec: forward value interpolation
    (3 tensor sweeps), pointwise JxW multiply, transposed integration."""
    n = degree + 1
    nq = n_q or n
    return n_components * (2 * _interpolation_flops(n, nq) + nq**3)


def inverse_mass_flops(degree: int, n_components: int = 1) -> int:
    """Collocation inverse mass per cell (needs n_q = k+1): two
    tensorized triads of square 1D sweeps plus a pointwise division."""
    n = degree + 1
    sweeps = 6 * flops_apply_1d(n, n, n * n)
    return n_components * (sweeps + n**3)


def chebyshev_iteration_flops(degree: int, n_dofs_per_cell: int) -> int:
    """Vector-update Flops per smoother iteration and cell on top of the
    mat-vec: d = rho*rho_old*d + c*P(r); x += d; r -= A d -> ~6 Flop/DoF."""
    return 6 * n_dofs_per_cell
