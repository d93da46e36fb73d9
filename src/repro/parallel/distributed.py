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

from ..core.operators.laplace import DGLaplaceOperator, cell_laplacian
from ..core.plans import cached_scatter_plan
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
        self.fk = op.fk
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
                buffers[(ib, int(e), "m")] = (tm_v[j:j + 1], tm_g[j:j + 1])
                buffers[(ib, int(e), "p")] = (tp_v[j:j + 1], tp_g[j:j + 1])
                census.n_sheets += 2
                census.bytes_total += 2 * self._sheet_bytes
                census.pairs.add((int(rm[e]), int(rp[e])))
                census.pairs.add((int(rp[e]), int(rm[e])))
        census.n_messages = len(census.pairs)
        return buffers, census

    # ------------------------------------------------------------------
    def vmult(self, x: np.ndarray) -> tuple[np.ndarray, ExchangeCensus]:
        """Distributed mat-vec: returns (result, exchange census)."""
        op = self.op
        u = op.dof.cell_view(x)
        buffers, census = self._exchange(u)
        fk = self.fk

        # cell terms: each rank handles its own cells (here: all at once,
        # ownership is disjoint so this is exactly the union of rank work)
        out = cell_laplacian(op.kern, op.cell_metrics.laplace_d, u, op.workspace())

        for ib, (batch, fm, tau) in enumerate(
            zip(op.conn.interior, op.face_metrics, op.tau)
        ):
            local = self._local[ib]
            o, sf = batch.orientation, batch.subface
            if local.size:
                self._accumulate(
                    out, batch, fm, tau, local,
                    fk.eval_side(u[batch.cells_m[local]], batch.face_m),
                    fk.eval_side(u[batch.cells_p[local]], batch.face_p, o, sf),
                    key=("local", ib),
                )
            for e in self._cut[ib]:
                idx = np.array([e])
                # minus owner: local minus traces + buffered plus sheets
                self._accumulate(
                    out, batch, fm, tau, idx,
                    fk.eval_side(u[batch.cells_m[idx]], batch.face_m),
                    fk.eval_sheets(*buffers[(ib, int(e), "p")], batch.face_p, o, sf),
                    plus=False,
                )
                # plus owner: local plus traces + buffered minus sheets
                self._accumulate(
                    out, batch, fm, tau, idx,
                    fk.eval_sheets(*buffers[(ib, int(e), "m")], batch.face_m),
                    fk.eval_side(u[batch.cells_p[idx]], batch.face_p, o, sf),
                    minus=False,
                )

        # boundary terms are rank-local by construction
        for ib, (batch, fm, tau) in enumerate(
            zip(op.conn.boundary, op.bdry_metrics, op.tau_b)
        ):
            if batch.boundary_id in op.dirichlet_ids:
                contrib = op.boundary_terms(batch.face, fm, tau, u[batch.cells])
                self._scatter(out, batch.cells, contrib, ("bdy", ib))
        return op.dof.flat(out), census

    def _accumulate(self, out, batch, fm, tau, idx, minus_traces, plus_traces,
                    minus: bool = True, plus: bool = True, key=None) -> None:
        """Add the requested sides of the face entries ``idx`` of one
        batch through the operator's own face kernel."""
        contrib_m, contrib_p = self.op.face_terms(
            batch, _SubMetrics(fm, idx), tau[idx], minus_traces, plus_traces,
            minus=minus, plus=plus,
        )
        if minus:
            self._scatter(out, batch.cells_m[idx], contrib_m,
                          None if key is None else key + ("m",))
        if plus:
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


class _SubMetrics:
    """The metric rows of selected face entries that the face kernel
    reads."""

    def __init__(self, fm, idx) -> None:
        self.c_m = fm.c_m[:, idx]
        self.c_p = fm.c_p[:, idx]
        self.jxw = fm.jxw[idx]
