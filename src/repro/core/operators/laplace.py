"""Matrix-free Laplacians: symmetric interior penalty DG and continuous FE.

``DGLaplaceOperator`` realizes Eq. (7) of the paper — the operator whose
throughput is benchmarked in Figures 6-8 and which (negated) forms the
pressure Poisson matrix of the splitting scheme.  ``CGLaplaceOperator``
is the conforming auxiliary-space operator of the two finest multigrid
levels (Section 3.4), including hanging-node constraints.

Weak Dirichlet data (SIP/Nitsche) and Neumann data enter through
:meth:`DGLaplaceOperator.assemble_rhs`, as test integrals of the face
loop's boundary rows (each boundary id's data evaluated once).

The SIP mat-vec is the cell term plus one planned face loop
(:class:`~repro.core.operators.base.FaceLoop`, four sheets per direction)
on the DG vector itself, a lane block: every face side — interior minus,
interior plus, Dirichlet — is a row of the same chunked sheet gather,
precomposed flux block and sheet scatter, whatever its face number,
orientation or subface; :mod:`repro.parallel.runtime`'s rank-local
operator runs the same loop on its own faces.  The mat-vec's scratch buffers live in the
process-wide arena (:data:`repro.core.plans.SCRATCH`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import METRIC_ROWS, GeometryField, sparsest
from ..dof_handler import CGDofHandler, DGDofHandler, csr_with_data
from ..plans import SCRATCH
from ..sum_factorization import apply_1d
from .base import FaceLoop, MatrixFreeOperator, in_loop_order, value_faces


def cell_laplacian(kern, laplace_d: np.ndarray, u: np.ndarray, ws,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Cell term ``I_e^T D_e I_e u`` of the Laplacian on a lane block:
    ``u`` is (..., n, n, n, c), ``laplace_d`` the stored metric entries
    (6|3, q, q, q, c) (:data:`~repro.mesh.mapping.METRIC_ROWS`).  The
    reference-gradient stack is component-major, so the 3x3 metric is
    nine flat multiply-adds (three if diagonal).  The result lands in
    ``out`` (``u`` itself may be it), else a fresh array; scratch:
    ``ws``'s ``tpk.g``, ``lap.Dg`` and the dead values' ``tpk.a``."""
    g = kern.gradients_cm(u, ws)
    dt = np.result_type(laplace_d.dtype, g.dtype)
    Dg = ws.take("lap.Dg", g.shape, dt)
    t = ws.take("tpk.a", g.shape[1:], dt)
    for a, ((b, s), *rest) in enumerate(METRIC_ROWS[len(laplace_d)]):
        np.multiply(laplace_d[s], g[b], out=Dg[a])
        for b, s in rest:
            Dg[a] += np.multiply(laplace_d[s], g[b], out=t)
    return kern.integrate_gradients_cm(Dg, ws, out)


def _cell_laplace_diagonal(kern, laplace_d: np.ndarray) -> np.ndarray:
    """Diagonal of the cell term ``sum_q (d_a phi_i) D[a,b] (d_b phi_i)``
    by x, y, z sweeps of squared 1D shape-function factors; ``laplace_d``
    is (6|3, q, q, q, c), the result the float64 lane block (n, n, n, c)."""
    Ng, Dg = kern.shape.interp.T, kern.shape.grad.T
    ldiag = np.zeros((kern.n_dofs_1d,) * 3 + laplace_d.shape[-1:])
    for a, row in enumerate(METRIC_ROWS[len(laplace_d)]):
        for b, s in row:
            t = laplace_d[s]
            for d in range(3):
                t = apply_1d((Dg if a == d else Ng) * (Dg if b == d else Ng), t, d + 1)
            ldiag += t
    return ldiag


@dataclass
class FaceData:
    """SIP flux coefficients in :class:`FaceLoop` order, both doubled
    on Dirichlet faces (:meth:`DGLaplaceOperator._face_coefficients`).

    a: (faces, q*q)      ``tau w``, the weight of the jump ``[u]``
    b: (3|1, rows, q*q)  ``-w c / 2``, the weights of the minus-frame
       ``(n, a, b)`` derivatives, ``c = J^{-1} n`` (``FaceMetrics.c_m``),
       ``n`` only if axis-aligned
    """

    a: np.ndarray
    b: np.ndarray

    def restrict(self, loop: FaceLoop, sub: FaceLoop) -> "FaceData":
        """This data, in ``loop``'s order, in the order of ``sub`` — a
        loop over a subset of the same table."""
        pf, pr = np.argsort(loop.src_faces), np.argsort(loop.src_rows)  # loop positions
        return FaceData(self.a[pf[sub.src_faces]], self.b[:, pr[sub.src_rows]])


class DGLaplaceOperator(MatrixFreeOperator):
    """Symmetric interior penalty discretization of ``-div(grad u)``.

    Parameters
    ----------
    dof, geometry, connectivity:
        Space, metric terms, and face batches of the same forest.
    dirichlet_ids:
        Boundary indicators with (weak) Dirichlet conditions; all other
        boundary faces are natural (Neumann).
    penalty_factor:
        Multiplies the standard SIP penalty ``(k+1)^2 A_f / V``.  The
        default 2.5 keeps the bilinear form coercive on the strongly
        sheared cells of tube-junction meshes (factor 1 suffices on
        affine meshes but loses definiteness at the lung bifurcations).
    """

    def __init__(
        self,
        dof: DGDofHandler,
        geometry: GeometryField,
        connectivity: MeshConnectivity,
        dirichlet_ids: tuple[int, ...] = (),
        penalty_factor: float = 2.5,
    ) -> None:
        self.dof = dof
        self.geo = geometry
        self.conn = connectivity
        self.kern = geometry.kernel
        self.dirichlet_ids = tuple(dirichlet_ids)
        self.laplace_d = geometry.cell_metrics().laplace_d
        fms, bms = geometry.all_face_metrics(connectivity)
        pen = penalty_factor * (dof.degree + 1) ** 2
        dirichlet = [(b, fm) for b, fm in zip(connectivity.boundary, bms)
                     if b.boundary_id in self.dirichlet_ids]
        # the index plan is shared with dtype clones, the face data cast
        self.face_loop = FaceLoop.of(self.kern, dof.n_cells, connectivity.interior,
                                     [b for b, _ in dirichlet])
        faces = list(fms) + [fm for _, fm in dirichlet]
        qq = self.kern.n_q_points ** 2
        a, b = self._face_coefficients(
            np.concatenate([np.zeros((3, 0, qq))] + [fm.c_m for fm in fms] + [fm.c_p for fm in fms]
                           + [fm.c_m for _, fm in dirichlet], axis=1),
            np.concatenate([np.zeros((0, qq))] + [fm.jxw.reshape(-1, qq) for fm in faces]),
            np.concatenate([np.zeros(0)] + [pen * fm.penalty for fm in faces]))
        loop = self.face_loop
        self.face_data = FaceData(a[loop.src_faces], sparsest(b[:, loop.src_rows], [0], [1, 2]))
        loop.points = in_loop_order([fm.points for _, fm in dirichlet], loop.bsrc, (3, qq))

    # ------------------------------------------------------------------
    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        """Analytic Flop count (Section 5.1 / Figure 7) and ideal
        transfer model of one SIP mat-vec on this mesh.  Only Dirichlet
        faces carry a boundary term (:meth:`vmult` skips the rest)."""
        from ...perf.flops import laplace_flops
        from ...perf.memory import laplace_transfer

        cell, face = len(self.laplace_d), len(self.face_data.b)
        fl = laplace_flops(self.dof.degree, self.kern.n_q_points, cell, face)
        tr = laplace_transfer(self.dof.degree, self.kern.n_q_points, self.precision_bytes,
                              cell_entries=cell, face_components=face)
        n_dirichlet = sum(b.n_faces for b in self.conn.boundary
                          if b.boundary_id in self.dirichlet_ids)
        return {
            "flops": float(
                fl.matvec_total(
                    self.dof.n_cells, self.conn.n_interior_faces, n_dirichlet
                )
            ),
            "bytes": float(tr.total_bytes(self.dof.n_cells)),
            "dofs": float(self.n_dofs),
        }

    def _face_coefficients(self, c, w, tau):
        """The one hook of :meth:`FaceLoop.run`: :class:`FaceData`'s ``a =
        s tau w`` per face and ``b = -s w c / 2`` per row (``s`` 2 on
        Dirichlet faces, the mirror ghost) from ``c`` (3, rows, q*q) of the
        minus, plus and Dirichlet sides of faces ``[0, Fi)``, ``[0, Fi)``,
        ``[Fi, F)`` and ``w`` (F, q*q), ``tau`` (F,), all in table order."""
        Fi = c.shape[1] - len(w)
        sw = np.where(np.arange(len(w)) < Fi, 1.0, 2.0)[:, None] * w
        return tau[:, None] * sw, -0.5 * sw[np.r_[0:Fi, 0:len(w)]] * c

    def vmult(self, x: np.ndarray) -> np.ndarray:
        """``x`` is (ndof,) or batch-stacked ``(*lead, ndof)``: the
        leading axes ride along in front of the same kernels.  ``x``'s
        lane block gives the face sheets, the cell term lands in a fresh
        block of ``x``'s dtype and the face terms on top."""
        loop, data = self.face_loop, self.face_data
        u = self.dof.lanes(x)
        lanes = u.reshape((-1,) + u.shape[-4:])
        buf = SCRATCH.take("sip.sheets", (lanes.shape[0], loop.size),
                           np.result_type(u.dtype, data.a.dtype))
        loop.sheets(lanes, buf)
        out = np.empty(u.shape, u.dtype)
        cell_laplacian(self.kern, self.laplace_d, u, SCRATCH, out)
        loop.run(buf, data, loop.chunks)
        loop.finish(buf)
        loop.expand(buf, out.reshape(lanes.shape))
        return out.reshape(x.shape)

    # ------------------------------------------------------------------
    def assemble_rhs(
        self,
        f=None,
        dirichlet=None,
        neumann=None,
    ) -> np.ndarray:
        """Right-hand side for ``A u = b``: volume source ``f(x, y, z)``,
        weak Dirichlet data ``dirichlet(x, y, z)`` on ``dirichlet_ids``
        faces (or a dict mapping boundary id to a callable), Neumann data
        ``neumann(x, y, z)`` (= grad u . n) elsewhere.

        Boundary callables may return ensemble-stacked ``(E, F, a, b)``
        data (per-member windkessel pressures, say); the assembled
        vector is then ``(E, ndof)``, with unbatched data broadcast
        across the members.
        """
        loop, fd = self.face_loop, self.face_data
        if dirichlet is not None and not isinstance(dirichlet, dict):
            dirichlet = dict.fromkeys(self.dirichlet_ids, dirichlet)
        g = h = None
        if dirichlet is not None:
            g = loop.boundary_data(loop.points, dirichlet)
        if neumann is not None:  # the natural rows of the value loop
            nloop, nfd = value_faces(self.geo, self.conn)
            ids = set(nloop.bids.tolist()) - set(self.dirichlet_ids)
            h = nloop.boundary_data(nfd.points, dict.fromkeys(ids, neumann)) * nfd.jxw[nloop.bface]
        try:
            lead = np.broadcast_shapes(*(x.shape[:-2] for x in (g, h) if x is not None))
        except ValueError:
            raise ValueError("inconsistent ensemble sizes in boundary data") from None
        n = self.kern.n_dofs_1d
        out = np.zeros(lead + (n, n, n, self.dof.n_cells))
        if f is not None:  # at the operator's dtype, like its metric
            cm = self.geo.cell_metrics()
            pts, jxw = (a.astype(self.dtype, copy=False) for a in (cm.points, cm.jxw))
            out += self.kern.integrate_values(f(pts[0], pts[1], pts[2]) * jxw)
        lanes = out.reshape((-1,) + out.shape[-4:])

        def add(lp, data, weights):  # zeroed sheets, boundary rows only: no finish
            data = np.broadcast_to(data, lead + data.shape[-2:]).reshape(
                lanes.shape[:1] + data.shape[-2:])
            buf = np.zeros((lanes.shape[0], lp.size))
            for ch in lp.chunks:
                R = weights(ch, data[:, ch.b0:ch.b0 + ch.F - ch.Fi])
                lp.integrate(R, ch, buf, slice(ch.Fi, ch.F))
            lp.expand(buf, lanes)

        def nitsche(ch, gb):  # weights of v (a g) and d_n, d_a, d_b v (b g)
            R = np.zeros((gb.shape[0], 4) + gb.shape[1:])  # unstored b: zero weights
            R[:, 0] = fd.a[ch.f0 + ch.Fi:ch.f0 + ch.F] * gb
            R[:, 1:1 + len(fd.b)] = fd.b[:, ch.r0 + ch.Fi:ch.r0 + ch.F] * gb[:, None]
            return R

        if g is not None:
            add(loop, g, nitsche)
        if h is not None:
            add(nloop, h, lambda ch, hb: hb)
        return out.reshape(lead + (-1,))

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Exact operator diagonal by closed-form tensor evaluation: the
        cell part by sweeps of squared 1D factors
        (:func:`_cell_laplace_diagonal`), the face self-couplings by one
        pass of the face loop (:meth:`FaceLoop.add_diagonal`) instead of
        one full operator application per local basis function."""
        diag = _cell_laplace_diagonal(self.kern, self.laplace_d)
        self.face_loop.add_diagonal(self.face_data, diag)
        return diag.reshape(-1)


class CGLaplaceOperator(MatrixFreeOperator):
    """Continuous finite element Laplacian with hanging-node constraints
    and strong Dirichlet conditions (via the constraint machinery of
    :class:`~repro.core.dof_handler.CGDofHandler`)."""

    def __init__(self, dof: CGDofHandler, geometry: GeometryField) -> None:
        if geometry.degree != dof.degree:
            raise ValueError("geometry kernel degree must match the dof space")
        self.dof = dof
        self.kern = geometry.kernel
        self.laplace_d = geometry.cell_metrics().laplace_d

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        """Cell-only Flop count; transfer = global vectors + cell metric
        (gather/scatter indirection is extra memory, not Flops)."""
        from ...perf.flops import cg_laplace_flops

        nq = self.kern.n_q_points
        fl = cg_laplace_flops(self.dof.degree, nq, len(self.laplace_d))
        pb = self.precision_bytes
        vec_bytes = 3.0 * pb * self.n_dofs
        metric_bytes = len(self.laplace_d) * nq**3 * pb * self.dof.n_cells
        return {
            "flops": float(fl.matvec_total(self.dof.n_cells, 0, 0)),
            "bytes": vec_bytes + metric_bytes,
            "dofs": float(self.n_dofs),
        }

    def vmult(self, x: np.ndarray) -> np.ndarray:
        u = self.dof.gather_cells(x)
        # the cell term overwrites the gathered cells, which
        # scatter_add_cells reduces into a fresh global vector
        cell_laplacian(self.kern, self.laplace_d, u, SCRATCH, u)
        return self.dof.scatter_add_cells(u)

    def diagonal(self) -> np.ndarray:
        """Jacobi diagonal: local cell diagonals accumulated with squared
        constraint weights (the standard matrix-free approximation),
        ``(G∘G)ᵀ · ldiag`` through the handler's cell map."""
        ldiag = _cell_laplace_diagonal(self.kern, self.laplace_d)
        _, Gt = self.dof.cell_map(ldiag.dtype)
        return csr_with_data(Gt, Gt.data**2) @ ldiag.reshape(-1)
