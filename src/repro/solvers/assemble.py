"""Sparse assembly of the continuous Laplacian for the degree-1 multigrid
levels and the AMG coarse level (the paper runs BoomerAMG on an
assembled linear FE matrix; the levels of degree >= 2 stay matrix-free)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.dof_handler import CGDofHandler
from ..core.operators.base import MatrixFreeOperator
from ..mesh.mapping import METRIC_ROWS, GeometryField


def gradient_tensors(kernel) -> np.ndarray:
    """B[a, Q, I] = d phi_I / d ref_a at quadrature point Q, built from
    the 1D shape matrices (Q and I flattened x-fastest)."""
    Ng = kernel.shape.interp
    Dg = kernel.shape.grad
    nq, n = Ng.shape
    out = np.empty((3, nq**3, n**3))
    for a in range(3):
        mz = Dg if a == 2 else Ng
        my = Dg if a == 1 else Ng
        mx = Dg if a == 0 else Ng
        B = np.einsum("ZI,YJ,XK->ZYXIJK", mz, my, mx).reshape(nq**3, n**3)
        out[a] = B
    return out


def assemble_cg_laplace(dof: CGDofHandler, geometry: GeometryField) -> sp.csr_matrix:
    """Assemble ``C^T A C`` for the continuous Laplacian on the masters."""
    kern = geometry.kernel
    cm = geometry.cell_metrics()
    B = gradient_tensors(kern)  # (3, Q, I)
    N = dof.n_cells
    nloc = kern.n_dofs_cell
    # (slot, c, Q): the lane block's cells in front, as the loop reads them
    D = np.ascontiguousarray(np.swapaxes(cm.laplace_d.reshape(len(cm.laplace_d), -1, N), 1, 2))
    # local matrices: A_loc[c, I, J] = sum_{stored a,b; Q} B[a,Q,I] D[c,a,b,Q] B[b,Q,J]
    A_loc = sum(
        np.einsum("QI,cQ,QJ->cIJ", B[a], D[s], B[b], optimize=True)
        for a, row in enumerate(METRIC_ROWS[len(D)]) for b, s in row
    )
    rows = np.repeat(dof.cell_to_global.reshape(N, nloc), nloc, axis=1).ravel()
    cols = np.tile(dof.cell_to_global.reshape(N, nloc), (1, nloc)).ravel()
    A_global = sp.csr_matrix(
        (A_loc.ravel(), (rows, cols)), shape=(dof.n_global, dof.n_global)
    )
    A = dof.Ct @ A_global @ dof.C
    A.sum_duplicates()
    return sp.csr_matrix(A)


class AssembledOperator(MatrixFreeOperator):
    """A multigrid level applied as an assembled sparse matrix.

    A degree-1 level is too small for sum factorization to pay: its
    matrix-free mat-vec is almost all call overhead, while one CSR
    product of the same ``C^T A C`` (:func:`assemble_cg_laplace`) takes
    microseconds.  Deriving from :class:`MatrixFreeOperator` keeps the
    ``vmult`` span and work model.  The float64 ``matrix`` is the one
    the AMG root is built on; a reduced-precision clone
    (:func:`~repro.solvers.multigrid.operator_to_dtype`) shares it and
    rounds each product to its ``dtype`` — at this size the product's
    precision costs nothing, so there is no second, rounded matrix.
    """

    def __init__(self, matrix: sp.csr_matrix) -> None:
        self.matrix = matrix

    @property
    def n_dofs(self) -> int:
        return self.matrix.shape[0]

    def _build_work_model(self) -> dict:
        """One multiply-add per stored entry; float64 CSR values, column
        indices and row pointers, and the vector stream."""
        nnz, n = float(self.matrix.nnz), float(self.n_dofs)
        return {
            "flops": 2.0 * nnz,
            "bytes": 12.0 * nnz + 4.0 * (n + 1) + 3.0 * self.precision_bytes * n,
            "dofs": n,
        }

    def vmult(self, x: np.ndarray) -> np.ndarray:
        """``x`` is (ndof,) or a ``(*lead, ndof)`` stack: one sparse
        product against its (flattened) transpose, in the promoted dtype
        of ``x`` and the operator."""
        x2 = x.reshape(-1, x.shape[-1]) if x.ndim > 2 else x
        y = (self.matrix @ x2.T).T.reshape(x.shape)
        return y.astype(np.result_type(x.dtype, self.dtype), copy=False)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()
