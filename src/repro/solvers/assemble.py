"""Sparse assembly of the continuous Laplacian — used only for the AMG
coarse level (the paper runs BoomerAMG on an assembled linear FE matrix;
all finer levels stay matrix-free)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.dof_handler import CGDofHandler
from ..mesh.mapping import SYM_SLOT, GeometryField


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
    D = cm.laplace_d.reshape(6, N, -1)  # (slot, c, Q)
    # local matrices: A_loc[c, I, J] = sum_{a,b,Q} B[a,Q,I] D[c,a,b,Q] B[b,Q,J]
    A_loc = sum(
        np.einsum("QI,cQ,QJ->cIJ", B[a], D[SYM_SLOT[a][b]], B[b], optimize=True)
        for a in range(3) for b in range(3)
    )
    rows = np.repeat(dof.cell_to_global.reshape(N, nloc), nloc, axis=1).ravel()
    cols = np.tile(dof.cell_to_global.reshape(N, nloc), (1, nloc)).ravel()
    A_global = sp.csr_matrix(
        (A_loc.ravel(), (rows, cols)), shape=(dof.n_global, dof.n_global)
    )
    A = dof.Ct @ A_global @ dof.C
    A.sum_duplicates()
    return sp.csr_matrix(A)
