"""Simulated distributed execution of the DG Laplacian mat-vec.

The paper's MPI parallelization (Section 3.2) partitions cells along the
Morton curve, exchanges ghost-face data with nearest neighbors via
non-blocking messages, and overlaps the exchange with cell work.  This
module *executes* that protocol in-process: each rank only ever reads
the solution entries of its own cells plus the received ghost sheets,
and the per-rank results scatter-add into the global vector.  Tests
assert bit-level-close agreement with the monolithic operator — the
strongest possible check that the communication pattern (what is shipped
per cut face) is sufficient and correct.

Shipped per cut face and direction: the neighbor's nodal *value trace*
and nodal *normal-derivative trace* (2 x (k+1)^2 values) — everything
the SIP flux needs, since tangential derivatives are recomputed from the
value trace on the receiving side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.operators.base import FaceKernels
from ..core.operators.laplace import DGLaplaceOperator
from ..core.plans import cached_scatter_plan, contract
from ..core.sum_factorization import apply_1d_2d
from .partition import partition_forest


@dataclass
class ExchangeCensus:
    """Message accounting of one mat-vec (per exchange round)."""

    n_messages: int = 0
    n_sheets: int = 0
    bytes_total: int = 0
    pairs: set = field(default_factory=set)


class DistributedDGLaplace:
    """Rank-partitioned evaluation of an existing
    :class:`~repro.core.operators.laplace.DGLaplaceOperator`."""

    def __init__(self, op: DGLaplaceOperator, n_ranks: int,
                 weights=None) -> None:
        self.op = op
        self.n_ranks = n_ranks
        self.ranks = partition_forest(op.geo.forest, n_ranks, weights)
        self.kern = op.kern
        self.fk = FaceKernels(op.kern)
        n1 = op.kern.n_dofs_1d
        self._sheet_bytes = 2 * n1 * n1 * np.dtype(op.dtype).itemsize
        # the partition is fixed, so the local/cut split of every face
        # batch — and the scatter destinations of the local bulk — are
        # computed once here instead of on every mat-vec
        self._local: list[np.ndarray] = []
        self._cut: list[np.ndarray] = []
        for batch in op.conn.interior:
            rm = self.ranks[batch.cells_m]
            rp = self.ranks[batch.cells_p]
            self._local.append(np.nonzero(rm == rp)[0])
            self._cut.append(np.nonzero(rm != rp)[0])
        self._plan_cache: dict = {}

    # ------------------------------------------------------------------
    def _exchange(self, u_cells: np.ndarray) -> tuple[dict, ExchangeCensus]:
        """Ghost exchange: for every cut face, the owner of each side
        packs its value + normal-derivative nodal traces for the other
        side.  Keys: (batch index, entry index, 'm'|'p') identify the
        *sender's* side."""
        census = ExchangeCensus()
        buffers: dict = {}
        for ib, batch in enumerate(self.op.conn.interior):
            cut = self._cut[ib]
            if cut.size == 0:
                continue
            rm = self.ranks[batch.cells_m]
            rp = self.ranks[batch.cells_p]
            kern = self.kern
            tm_v = kern.face_nodal_trace(u_cells[batch.cells_m[cut]], batch.face_m)
            tm_g = kern.face_nodal_normal_derivative(
                u_cells[batch.cells_m[cut]], batch.face_m
            )
            tp_v = kern.face_nodal_trace(u_cells[batch.cells_p[cut]], batch.face_p)
            tp_g = kern.face_nodal_normal_derivative(
                u_cells[batch.cells_p[cut]], batch.face_p
            )
            for j, e in enumerate(cut):
                buffers[(ib, int(e), "m")] = (tm_v[j], tm_g[j])
                buffers[(ib, int(e), "p")] = (tp_v[j], tp_g[j])
                census.n_sheets += 2
                census.bytes_total += 2 * self._sheet_bytes
                census.pairs.add((int(rm[e]), int(rp[e])))
                census.pairs.add((int(rp[e]), int(rm[e])))
        census.n_messages = len(census.pairs)
        return buffers, census

    @staticmethod
    def _grad3_from_sheets(kern, value_sheet, nder_sheet, face):
        """Rebuild the 3-component reference-gradient nodal trace from the
        two shipped sheets (tangential derivatives from the value trace)."""
        d = face // 2
        rem = [dd for dd in (2, 1, 0) if dd != d]
        D = kern.nodal_diff
        g = [None, None, None]
        g[d] = nder_sheet
        g[rem[0]] = apply_1d_2d(D, value_sheet, 1)
        g[rem[1]] = apply_1d_2d(D, value_sheet, 0)
        return np.stack(g, axis=-3)

    # ------------------------------------------------------------------
    def vmult(self, x: np.ndarray) -> tuple[np.ndarray, ExchangeCensus]:
        """Distributed mat-vec: returns (result, exchange census)."""
        op = self.op
        u = op.dof.cell_view(x)
        buffers, census = self._exchange(u)
        out = np.zeros_like(u)
        fk = self.fk
        kern = self.kern

        # cell terms: each rank handles its own cells (here: all at once,
        # ownership is disjoint so this is exactly the union of rank work)
        out += op._cell_term(u)

        for ib, (batch, fm, tau) in enumerate(
            zip(op.conn.interior, op.face_metrics, op.tau)
        ):
            local = self._local[ib]
            cut = self._cut[ib]

            if local.size:
                um = u[batch.cells_m[local]]
                up = u[batch.cells_p[local]]
                vm, gm = fk.eval_side(um, batch.face_m)
                vp, gp = fk.eval_side(up, batch.face_p, batch.orientation, batch.subface)
                self._accumulate(out, batch, fm, tau, local, vm, gm, vp, gp,
                                 minus=True, plus=True, key=("local", ib))

            for e in cut:
                # minus owner: local minus traces + buffered plus sheets
                um = u[batch.cells_m[e : e + 1]]
                vm_t, gm_t = fk.nodal_traces(um, batch.face_m)
                pv, pg = buffers[(ib, int(e), "p")]
                pg3 = self._grad3_from_sheets(kern, pv[None], pg[None], batch.face_p)
                vm = fk.to_quad(vm_t)
                gm = fk.to_quad(gm_t)
                vp = fk.to_quad(pv[None], batch.orientation, batch.subface)
                gp = fk.to_quad(pg3, batch.orientation, batch.subface)
                idx = np.array([e])
                self._accumulate(out, batch, fm, tau, idx, vm, gm, vp, gp,
                                 minus=True, plus=False)
                # plus owner: local plus traces + buffered minus sheets
                upc = u[batch.cells_p[e : e + 1]]
                vp2, gp2 = fk.eval_side(upc, batch.face_p, batch.orientation, batch.subface)
                mv, mg = buffers[(ib, int(e), "m")]
                mg3 = self._grad3_from_sheets(kern, mv[None], mg[None], batch.face_m)
                vm2 = fk.to_quad(mv[None])
                gm2 = fk.to_quad(mg3)
                self._accumulate(out, batch, fm, tau, idx, vm2, gm2, vp2, gp2,
                                 minus=False, plus=True)

        # boundary terms are rank-local by construction
        out += self._boundary_terms(u)
        return op.dof.flat(out), census

    def _accumulate(self, out, batch, fm, tau, idx, vm, gm, vp, gp,
                    minus: bool, plus: bool, key=None) -> None:
        from ..core.operators.base import physical_gradient

        op = self.op
        fm_m = fm.minus.jinv_t[idx]
        fm_p = fm.plus.jinv_t[idx]
        sub = _SubMetrics(fm, idx)
        Gm = physical_gradient(fm_m, gm)
        Gp = physical_gradient(fm_p, gp)
        rv_m, rg_m, rv_p, rg_p = op._face_flux(sub, tau[idx], vm, Gm, vp, Gp)
        if minus:
            contrib_m = self.fk.integrate_side(
                batch.face_m, rv_m,
                contract("fijab,fiab->fjab", fm_m, rg_m),
            )
            self._scatter(out, batch.cells_m[idx], contrib_m,
                          None if key is None else key + ("m",))
        if plus:
            contrib_p = self.fk.integrate_side(
                batch.face_p, rv_p,
                contract("fijab,fiab->fjab", fm_p, rg_p),
                batch.orientation, batch.subface,
            )
            self._scatter(out, batch.cells_p[idx], contrib_p,
                          None if key is None else key + ("p",))

    def _scatter(self, out, cells, contrib, key) -> None:
        """Planned scatter for the precomputed (per-batch) destinations;
        single cut faces accumulate directly (one row is trivially
        unique)."""
        if key is None:
            out[cells] += contrib
            return
        plan = cached_scatter_plan(self._plan_cache, key, cells, out.shape[0])
        plan.add(out, contrib)

    def _boundary_terms(self, u: np.ndarray) -> np.ndarray:
        from ..core.operators.base import physical_gradient

        op = self.op
        out = np.zeros_like(u)
        fk = self.fk
        for ib, (batch, fm, tau) in enumerate(
            zip(op.conn.boundary, op.bdry_metrics, op.tau_b)
        ):
            if batch.boundary_id not in op.dirichlet_ids:
                continue
            um = u[batch.cells]
            vm, gm = fk.eval_side(um, batch.face)
            Gm = physical_gradient(fm.minus.jinv_t, gm)
            dn_m = contract("fiab,fiab->fab", fm.normal, Gm)
            w = fm.jxw
            rv = (-dn_m + 2.0 * tau[:, None, None] * vm) * w
            rg_phys = (-vm * w)[:, None] * fm.normal
            contrib = fk.integrate_side(
                batch.face, rv, op._to_ref_grad(fm.minus.jinv_t, rg_phys)
            )
            self._scatter(out, batch.cells, contrib, ("bdy", ib))
        return out


class _SubMetrics:
    """View of a FaceMetrics restricted to selected face entries, with
    the attributes _face_flux reads."""

    def __init__(self, fm, idx) -> None:
        self.normal = fm.normal[idx]
        self.jxw = fm.jxw[idx]
