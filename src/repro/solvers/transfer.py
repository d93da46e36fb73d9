"""Multigrid level-transfer operators (Section 3.4, Figure 5).

Three kinds of transfers stack up in the hybrid multigrid:

* **DG -> CG** on the same mesh and degree: the conforming auxiliary
  space is a subspace of the DG space, so prolongation is the exact
  nodal embedding (gather through the constraint expansion).
* **p-transfer** between continuous spaces of degrees ``k_f > k_c`` on
  the same mesh (degree bisection).
* **h-transfer** between continuous spaces on consecutive
  global-coarsening forests (children interpolate from their parent's
  half-intervals).

All three reduce to one primitive: an interpolation matrix whose row for
a fine nodal point evaluates the coarse basis at that point.  Transfers
are materialized as scipy sparse matrices (they are the latency-, not
throughput-, critical part at Python scale) with ``restrict = P^T``,
which keeps the V-cycle variational.  Geometry consistency between
levels (the paper's "consistent interpolation between the geometric
levels") holds because every level samples the same analytic geometry.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from ..core.basis import LagrangeBasis1D
from ..core.dof_handler import CGDofHandler, DGDofHandler
from ..mesh.octree import CellId, Forest


class Transfer:
    """Wrapper of a sparse prolongation matrix P (fine x coarse) and its
    CSR transpose (formed here unless the caller already holds it)."""

    def __init__(self, P: sp.spmatrix, Pt: sp.spmatrix | None = None) -> None:
        self.P = sp.csr_matrix(P)
        self.Pt = self.P.T.tocsr() if Pt is None else Pt

    def prolongate(self, xc: np.ndarray) -> np.ndarray:
        """Coarse -> fine on ``(*lead, n_c)``: members map row-wise
        (``.T`` is the identity on a flat vector)."""
        return (self.P @ xc.T).T

    def restrict(self, rf: np.ndarray) -> np.ndarray:
        """Fine -> coarse (P^T) on ``(*lead, n_f)``."""
        return (self.Pt @ rf.T).T

    def to_precision(self, dtype) -> "Transfer":
        clone = copy.copy(self)
        clone.P = self.P.astype(dtype)
        clone.Pt = self.Pt.astype(dtype)
        return clone

    @property
    def shape(self):
        return self.P.shape


def dg_from_cg(dg: DGDofHandler, cg: CGDofHandler, dtype=np.float64) -> Transfer:
    """Exact embedding of the conforming space into the DG space: the CG
    handler's cell map ``G`` at ``dtype`` (its rows are the DG dofs, in
    the DG vector's lane order), shared with the handler rather than
    copied."""
    if dg.degree != cg.degree or dg.n_cells != cg.n_cells:
        raise ValueError("DG and CG spaces must share mesh and degree")
    return Transfer(*cg.cell_map(dtype))


def _interpolation_rows(
    fine: CGDofHandler,
    coarse: CGDofHandler,
    cell_map,
) -> sp.csr_matrix:
    """P_nodal (fine global x coarse master): coarse basis evaluated at
    every fine nodal point; one providing cell per fine node.

    ``cell_map(fine_cell) -> (coarse_cell, offset (3,), scale)`` places
    the fine cell's reference cube inside the coarse cell's:
    ``x_coarse = offset + scale * x_fine``.
    """
    nf = fine.n1
    nc = coarse.n1
    fine_nodes = LagrangeBasis1D(fine.degree).nodes
    coarse_basis = LagrangeBasis1D(coarse.degree)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    written = np.zeros(fine.n_global, dtype=bool)
    # cache of 1D weight matrices per (offset, scale) in each dimension
    wcache: dict[tuple[float, float], np.ndarray] = {}

    def weights_1d(offset: float, scale: float) -> np.ndarray:
        key = (round(offset * 2**20), round(scale * 2**20))
        W = wcache.get(key)
        if W is None:
            W = coarse_basis.values(offset + scale * fine_nodes)  # (nf, nc)
            wcache[key] = W
        return W

    for cf in range(fine.n_cells):
        cc, offset, scale = cell_map(cf)
        Wx = weights_1d(offset[0], scale)
        Wy = weights_1d(offset[1], scale)
        Wz = weights_1d(offset[2], scale)
        fine_ids = fine.cell_to_global[cf]  # (nf, nf, nf) z, y, x
        coarse_ids = coarse.cell_to_global[cc]  # (nc, nc, nc)
        need = ~written[fine_ids]
        if not need.any():
            continue
        # local interpolation tensor W[(zf,yf,xf),(zc,yc,xc)]
        W = np.einsum("zZ,yY,xX->zyxZYX", Wz, Wy, Wx).reshape(nf**3, nc**3)
        fflat = fine_ids.reshape(-1)
        sel = need.reshape(-1)
        Wsel = W[sel]
        nz = np.abs(Wsel) > 1e-14
        r_idx, c_idx = np.nonzero(nz)
        rows.append(fflat[sel][r_idx])
        cols.append(coarse_ids.reshape(-1)[c_idx])
        vals.append(Wsel[nz])
        written[fflat[sel]] = True
    P_nodal = sp.csr_matrix(
        (
            np.concatenate(vals) if vals else np.zeros(0),
            (
                np.concatenate(rows) if rows else np.zeros(0, dtype=int),
                np.concatenate(cols) if cols else np.zeros(0, dtype=int),
            ),
        ),
        shape=(fine.n_global, coarse.n_global),
    )
    return P_nodal


def _finalize(fine: CGDofHandler, coarse: CGDofHandler, P_nodal: sp.csr_matrix) -> Transfer:
    master_rows = np.nonzero(~fine.is_constrained)[0]
    P = P_nodal[master_rows] @ coarse.C
    return Transfer(P)


def p_transfer(fine: CGDofHandler, coarse: CGDofHandler) -> Transfer:
    """Degree-bisection transfer between spaces on the same forest."""
    if fine.n_cells != coarse.n_cells:
        raise ValueError("p-transfer requires the same mesh")
    if fine.degree < coarse.degree:
        raise ValueError("fine degree must exceed coarse degree")
    zero = np.zeros(3)
    P_nodal = _interpolation_rows(fine, coarse, lambda cf: (cf, zero, 1.0))
    return _finalize(fine, coarse, P_nodal)


def h_transfer(
    fine: CGDofHandler,
    coarse: CGDofHandler,
    coarsening_map: dict[CellId, list[CellId]],
) -> Transfer:
    """Global-coarsening transfer between consecutive forest levels.

    ``coarsening_map`` is the parent -> children dictionary returned by
    :meth:`repro.mesh.octree.Forest.global_coarsening_level`.
    """
    fine_forest: Forest = fine.forest
    coarse_forest: Forest = coarse.forest
    placement: dict[int, tuple[int, np.ndarray, float]] = {}
    for parent, children in coarsening_map.items():
        cc = coarse_forest.index_of(parent)
        if children == [parent]:
            cf = fine_forest.index_of(parent)
            placement[cf] = (cc, np.zeros(3), 1.0)
        else:
            for child in children:
                cf = fine_forest.index_of(child)
                ci = child.child_index()
                offset = 0.5 * np.array([ci & 1, (ci >> 1) & 1, (ci >> 2) & 1], float)
                placement[cf] = (cc, offset, 0.5)
    if len(placement) != fine.n_cells:
        raise ValueError("coarsening map does not cover the fine forest")
    P_nodal = _interpolation_rows(fine, coarse, lambda cf: placement[cf])
    return _finalize(fine, coarse, P_nodal)
