"""Matrix-free Laplacians: symmetric interior penalty DG and continuous FE.

``DGLaplaceOperator`` realizes Eq. (7) of the paper — the operator whose
throughput is benchmarked in Figures 6-8 and which (negated) forms the
pressure Poisson matrix of the splitting scheme.  ``CGLaplaceOperator``
is the conforming auxiliary-space operator of the two finest multigrid
levels (Section 3.4), including hanging-node constraints.

Weak Dirichlet data (SIP/Nitsche) and Neumann data enter through
:meth:`DGLaplaceOperator.assemble_rhs`.

The SIP mat-vec is the cell term plus one planned face loop
(:class:`FaceLoop`): every face side — interior minus, interior plus,
Dirichlet — is a row of the same chunked sheet gather, flux block and
sheet scatter, whatever its face number, orientation or subface; the
rank-local operator of :mod:`repro.parallel.runtime` runs the same loop
on its own faces.  Scratch buffers live in each instance's workspace
(:mod:`repro.core.plans`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...mesh.connectivity import MeshConnectivity, Orientation, orient_face_array
from ...mesh.mapping import SYM_SLOT, GeometryField
from ..dof_handler import CGDofHandler, DGDofHandler
from ..plans import Workspace, contract
from .base import FaceKernels, MatrixFreeOperator, tangential_dims


def cell_laplacian(kern, laplace_d: np.ndarray, u: np.ndarray, ws,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Cell term ``I_e^T D_e I_e u`` of the Laplacian: ``u`` is
    (..., c, n, n, n), ``laplace_d`` the six symmetric metric entries
    (6, c, q, q, q) (:data:`~repro.mesh.mapping.SYM_SLOT`).  The
    reference-gradient stack is component-major, so the 3x3 metric is
    nine flat multiply-adds.  ``out`` defaults to a fresh array (the
    result then escapes the workspace ``ws``)."""
    g = kern.gradients_cm(u, ws)
    dt = np.result_type(laplace_d.dtype, g.dtype)
    Dg = ws.take("lap.Dg", g.shape, dt)
    t = ws.take("lap.t", g.shape[1:], dt)
    for a in range(3):
        np.multiply(laplace_d[SYM_SLOT[a][0]], g[0], out=Dg[a])
        Dg[a] += np.multiply(laplace_d[SYM_SLOT[a][1]], g[1], out=t)
        Dg[a] += np.multiply(laplace_d[SYM_SLOT[a][2]], g[2], out=t)
    if out is None:
        out = np.empty(u.shape, dtype=dt)
    return kern.integrate_gradients_cm(Dg, ws, out)


def _cell_laplace_diagonal(kern, laplace_d: np.ndarray) -> np.ndarray:
    """Diagonal of the cell term ``sum_q (d_a phi_i) D[a,b] (d_b phi_i)``
    via squared 1D shape-function factors; ``laplace_d`` is
    (6, c, q, q, q), the result (c, n, n, n)."""
    Ng = kern.shape.interp
    Dg = kern.shape.grad
    ldiag = np.zeros((laplace_d.shape[1],) + (kern.n_dofs_1d,) * 3)
    for a in range(3):
        for b in range(3):
            fx = (Dg if a == 0 else Ng) * (Dg if b == 0 else Ng)
            fy = (Dg if a == 1 else Ng) * (Dg if b == 1 else Ng)
            fz = (Dg if a == 2 else Ng) * (Dg if b == 2 else Ng)
            ldiag += contract("czyx,zZ,yY,xX->cZYX", laplace_d[SYM_SLOT[a][b]], fz, fy, fx)
    return ldiag


#: face-side rows per chunk of :class:`FaceLoop` (minus, plus and
#: Dirichlet rows together; buffers are O(chunk))
_FACE_CHUNK = 1024


def _matmul_rows(a, b, out, r0: int, r1: int) -> None:
    """``out[..., r0:r1, :] = a[..., r0:r1, :] @ b``, a one-row product
    doubled: BLAS rounds its one-row (gemv) path differently, and a row's
    result must not depend on the chunk it lands in."""
    a = a[..., r0:r1, :]
    if r1 - r0 == 1:
        out[..., r0, :] = np.matmul(np.concatenate([a, a], axis=-2), b)[..., 0, :]
    else:
        np.matmul(a, b, out=out[..., r0:r1, :])


@dataclass
class FaceData:
    """SIP face metrics, stored once in :class:`FaceLoop` order.

    c:   (3, rows, q*q)  ``J^{-1} n`` of every face side as minus-frame
         ``(n, a, b)`` components (``FaceMetrics.c_m`` / ``c_p``)
    jxw: (faces, q*q)    surface element x quadrature weight
    tau: (faces,)        SIP penalty
    """

    c: np.ndarray
    jxw: np.ndarray
    tau: np.ndarray


class FaceLoop:
    """The planned face loop of the SIP Laplacian.

    Every face side is one *row*: the minus and plus side of an interior
    face, the one side of a Dirichlet face.  A row reads two nodal
    sheets of its cell — value and normal derivative on its face — and
    writes the two residual sheets back to the same slot.  The sheets of
    both faces of every cell in direction ``d`` come from one GEMM of the
    cells with ``T = [e_0; e_k; phi'(0); phi'(1)]`` along ``d``
    (:meth:`sheets`); the transposed GEMM adds them back onto the cell
    term (:meth:`expand`).  A row's flat slot indices fold in its
    orientation, so every row — whatever its face number, orientation or
    batch — goes through the same few array operations per chunk
    (:meth:`run`).

    ``interior`` is ``(cells_m, face_m, cells_p, face_p, code, kind)``
    per interior face (``code`` the orientation code, ``kind`` 0 for a
    conforming face and ``1 + 2 sa + sb`` for 2:1 subface ``(sa, sb)``),
    ``dirichlet`` is ``(cells, face)``; together they are the *table*:
    table rows are the minus sides, the plus sides, then the Dirichlet
    sides, table faces the interior then the Dirichlet faces.  Cells at
    or above ``n_out`` are read but never expanded (ghosts).  Each of
    ``phases`` — ``(interior mask, Dirichlet mask)`` pairs, by default
    everything — is chunked on its own, so a rank can run its owned
    faces while ghost data is in flight.
    """

    def __init__(self, kern, n_cells: int, n_out: int, interior, dirichlet,
                 phases=None) -> None:
        self.kern = kern
        self.table = (interior, dirichlet)
        n = self.n1 = kern.n_dofs_1d
        nn = n * n
        (cm, fm, cp, fp, code, kind), (cd, fd) = interior, dirichlet
        Fi = cm.size
        M = self.M = n_cells * 4 * nn
        row_cell = np.concatenate([cm, cp, cd])
        row_face = np.concatenate([fm, fp, fd])
        row_code = np.concatenate([0 * cm, code, 0 * cd])
        row_kind = np.concatenate([0 * cm, kind, 0 * cd])
        # slot pattern of each (face, orientation code): the sheet of
        # direction d = face // 2 in the layout of :meth:`sheets`,
        # read in the minus frame
        lat = np.arange(n)
        pat = np.empty((6, 8, 2, nn), np.int64)
        for f in range(6):
            d, s = divmod(f, 2)
            sa, sb, st = ((4 * n, 4, 1), (4 * n, 1, n), (n, 1, nn))[d]
            own = lat[:, None] * sa + lat[None, :] * sb
            for oc in range(8):
                o = Orientation(bool(oc & 4), bool(oc & 2), bool(oc & 1))
                for kap in (0, 1):
                    pat[f, oc, kap] = (d * M + (2 * kap + s) * st
                                       + orient_face_array(own, o).reshape(nn))
        if phases is None:
            phases = ((np.ones(Fi, bool), np.ones(cd.size, bool)),)
        self.phases, src_rows, src_faces, sub = [], [], [], []
        r0 = f0 = 0
        for isel, dsel in phases:
            I = np.flatnonzero(isel)
            I = I[np.argsort(kind[I], kind="stable")]
            D = np.flatnonzero(dsel) + 2 * Fi
            n_ch = -(-(2 * I.size + D.size) // _FACE_CHUNK)
            ib = np.arange(n_ch + 1) * I.size // max(n_ch, 1)
            db = np.arange(n_ch + 1) * D.size // max(n_ch, 1)
            chunks = []
            for j in range(n_ch):
                Ij, Dj = I[ib[j]:ib[j + 1]], D[db[j]:db[j + 1]]
                rows = np.concatenate([Ij, Dj, Fi + Ij])
                k = row_kind[rows]
                cut = np.r_[0, np.flatnonzero(np.diff(k)) + 1, rows.size]
                groups = [(int(k[a]), int(a), int(b)) for a, b in zip(cut[:-1], cut[1:])]
                idx = row_cell[rows, None, None] * (4 * nn) + pat[row_face[rows], row_code[rows]]
                # subface rows write private slots, added onto the coarse
                # face's slot by :meth:`finish`
                hang = np.flatnonzero(k)
                ext = 3 * M + 2 * nn * (len(sub) + np.arange(hang.size))[:, None, None]
                ext = ext + np.arange(2 * nn).reshape(2, nn)
                sub += zip(k[hang], idx[hang], ext)
                gidx = sidx = np.ascontiguousarray(idx.swapaxes(0, 1), np.int32)
                if hang.size:
                    sidx = gidx.copy()
                    sidx[:, hang] = ext.swapaxes(0, 1)
                chunks.append((r0, f0, Ij.size, Ij.size + Dj.size, groups, gidx, sidx))
                src_rows.append(rows)
                src_faces.append(np.concatenate([Ij, Dj - Fi]))
                r0 += rows.size
                f0 += Ij.size + Dj.size
            self.phases.append(chunks)
        self.chunks = [ch for phase in self.phases for ch in phase]
        self.c_max = max((ch[5].shape[1] for ch in self.chunks), default=0)
        self.size = 3 * M + 2 * nn * len(sub)
        self.src_rows = np.concatenate([np.zeros(0, np.intp)] + src_rows)
        self.src_faces = np.concatenate([np.zeros(0, np.intp)] + src_faces)
        self.fold = []
        if sub:
            k, main, src = map(np.stack, zip(*sub))
            self.fold = [(main[k == s].astype(np.int32), src[k == s].astype(np.int32))
                         for s in range(1, 5) if np.any(k == s)]
        # slots of the expanded cells that no conforming row writes
        t = self.src_rows[row_kind[self.src_rows] == 0]
        t = t[row_cell[t] < n_out]
        written = np.zeros((n_out, 6), bool)
        written[row_cell[t], row_face[t]] = True
        c0, f0 = np.nonzero(~written)
        self.zero = (c0[:, None, None] * (4 * nn) + pat[f0, 0]).astype(np.int32)
        self._mats: dict = {}

    @classmethod
    def of(cls, kern, n_cells: int, interior, dirichlet) -> "FaceLoop":
        """The loop over the face batches ``interior`` and the boundary
        batches ``dirichlet`` of one mesh."""
        def col(batches, value):
            return np.concatenate([np.zeros(0, np.intp)] + [
                np.broadcast_to(value(b), b.n_faces).astype(np.intp) for b in batches])

        return cls(kern, n_cells, n_cells, tuple(col(interior, v) for v in (
            lambda b: b.cells_m, lambda b: b.face_m, lambda b: b.cells_p,
            lambda b: b.face_p, lambda b: b.orientation.code,
            lambda b: 0 if b.subface is None else 1 + 2 * b.subface[0] + b.subface[1],
        )), (col(dirichlet, lambda b: b.cells), col(dirichlet, lambda b: b.face)))

    def positions(self):
        """Position in this loop's order of every table face and row."""
        pf = np.empty(self.src_faces.size, np.intp)
        pf[self.src_faces] = np.arange(pf.size)
        pr = np.empty(self.src_rows.size, np.intp)
        pr[self.src_rows] = np.arange(pr.size)
        return pf, pr

    def restrict(self, data: FaceData, loop: "FaceLoop") -> FaceData:
        """``data``, in this loop's order, in the order of ``loop`` — a
        loop over a subset of the same table."""
        pf, pr = self.positions()
        f = pf[loop.src_faces]
        return FaceData(data.c[:, pr[loop.src_rows]], data.jxw[f], data.tau[f])

    # -- matrices ------------------------------------------------------
    def _mat(self, key, dt):
        m = self._mats.get((key, dt.char))
        if m is None:
            m = self._mats[key, dt.char] = tuple(
                np.ascontiguousarray(x, dt) for x in self._build(key))
        return m

    def _build(self, key):
        kern = self.kern
        if key in ("T", "T2"):
            sh = kern.shape
            T = np.stack([sh.face_value[0], sh.face_value[1], sh.face_grad[0], sh.face_grad[1]])
            if key == "T2":  # squared trace factors of the diagonal
                T = np.concatenate([T[:2] ** 2, T[:2] * T[2:]])
            return T, np.kron(T, np.eye(self.n1))
        kind, diag = key
        if kind == 0:
            Ma = Mb = kern.shape.interp
        else:
            Ma, Mb = (kern.subface_interp_matrix(s) for s in divmod(kind - 1, 2))
        D = kern.nodal_diff
        K = np.kron(Ma, Mb)
        KD = np.stack([np.kron(Ma @ D, Mb), np.kron(Ma, Mb @ D)])
        if diag:
            return K * K, K * KD[0], K * KD[1]
        return K, K.T, KD, KD.transpose(0, 2, 1)

    # -- the loop ------------------------------------------------------
    def sheets(self, u: np.ndarray, buf: np.ndarray, lo: int = 0) -> None:
        """Write the value and normal-derivative sheets of both faces per
        direction of the cells ``u`` (L, N, n, n, n) into ``buf`` (L,
        size) as cells ``lo, lo + 1, ...``: per direction one GEMM of
        ``T``, laid out (N, n, n, 4), (N, n, 4, n) and (N, 4, n, n)."""
        L, N, n = u.shape[0], u.shape[1], self.n1
        T, KT = self._mat("T", buf.dtype)
        a, b, M = lo * 4 * n * n, (lo + N) * 4 * n * n, self.M
        np.matmul(u.reshape(L, -1, n), T.T, out=buf[:, a:b].reshape(L, -1, 4))
        np.matmul(u.reshape(L, -1, n * n), KT.T,
                  out=buf[:, M + a:M + b].reshape(L, -1, 4 * n))
        np.matmul(T, u.reshape(L, N, n, n * n),
                  out=buf[:, 2 * M + a:2 * M + b].reshape(L, N, 4, n * n))

    def run(self, buf: np.ndarray, data: FaceData, chunks, flux, ws) -> None:
        """Evaluate ``chunks``: per chunk one gather of the rows' sheets,
        per interpolation kind the GEMMs to ``v, d_n v, d_a v, d_b v`` at
        the quadrature points, one flux block, the transposed GEMMs, and
        one scatter of the residual sheets into ``buf`` in place."""
        L, dt = buf.shape[0], buf.dtype
        nn, qq = self.n1 ** 2, data.jxw.shape[1]

        def take(tag, k, C, m):
            """``(L, k, C, m)`` scratch: a prefix of one max-chunk buffer."""
            flat = ws.take(tag, (L * k * self.c_max * m,), dt)
            return flat[:L * k * C * m].reshape(L, k, C, m)

        for r0, f0, Fi, F, groups, idx, sidx in chunks:
            C = idx.shape[1]
            G = take("sip.G", 2, C, nn)
            np.take(buf, idx, axis=1, out=G, mode="clip")
            Q = take("sip.Q", 4, C, qq)
            mats = [(self._mat((kind, False), dt), a, b) for kind, a, b in groups]
            for (_, Kt, _, KDt), a, b in mats:
                _matmul_rows(G[:, :2], Kt, Q[:, :2], a, b)
                _matmul_rows(G[:, :1], KDt, Q[:, 2:], a, b)
            # rows: minus sides [0, Fi), Dirichlet sides [Fi, F), plus
            # sides [F, C); a Dirichlet face sees the mirror ghost
            # u_p = -u_m, d_n u_p = d_n u_m; the normal derivative
            # overwrites Q[:, 1], the jump Q[:, 2]
            c = data.c[:, r0:r0 + C]
            v, dn = Q[:, 0], np.multiply(c[0], Q[:, 1], out=Q[:, 1])
            dn += np.multiply(c[1], Q[:, 2], out=Q[:, 2])
            dn += np.multiply(c[2], Q[:, 3], out=Q[:, 3])
            jump = Q[:, 2, :F]
            np.subtract(v[:, :Fi], v[:, F:], out=jump[:, :Fi])
            np.add(v[:, Fi:F], v[:, Fi:F], out=jump[:, Fi:])
            dn[:, :Fi] += dn[:, F:]
            dn[:, Fi:F] += dn[:, Fi:F]
            rv, s = flux(jump, dn[:, :F], data.jxw[f0:f0 + F], data.tau[f0:f0 + F])
            Q[:, 0, :F] = rv
            np.negative(rv[:, :Fi], out=Q[:, 0, F:])
            np.multiply(c[:, :F], s[:, None], out=Q[:, 1:, :F])
            np.multiply(c[:, F:], s[:, None, :Fi], out=Q[:, 1:, F:])
            for (K, _, _, _), a, b in mats:
                _matmul_rows(Q[:, :2], K, G[:, :2], a, b)
            # the derivative back-GEMMs land in the consumed Q[:, :2]
            # (n_q >= k + 1, so they fit)
            T = Q.reshape(L, -1)[:, :2 * C * nn].reshape(L, 2, C, nn)
            for (_, _, KD, _), a, b in mats:
                _matmul_rows(Q[:, 2:], KD, T, a, b)
            G[:, 0] += T[:, 0]
            G[:, 0] += T[:, 1]
            buf[:, sidx] = G

    def finish(self, buf: np.ndarray) -> None:
        """Zero the slots no conforming row writes, then add the subface
        rows of every coarse face onto its slot in subface order."""
        buf[:, self.zero] = 0
        for main, src in self.fold:
            buf[:, main] += buf[:, src]

    def expand(self, buf: np.ndarray, out: np.ndarray, ws, key: str = "T") -> None:
        """``out`` (L, N, n, n, n) += the residual sheets of cells
        ``0..N-1`` expanded by the transposed :meth:`sheets` GEMMs."""
        L, N, n = out.shape[0], out.shape[1], self.n1
        T, KT = self._mat(key, buf.dtype)
        X, M = N * 4 * n * n, self.M
        e = ws.take("sip.E", out.shape, buf.dtype)
        np.matmul(buf[:, :X].reshape(L, -1, 4), T, out=e.reshape(L, -1, n))
        out += e
        np.matmul(buf[:, M:M + X].reshape(L, -1, 4 * n), KT, out=e.reshape(L, -1, n * n))
        out += e
        np.matmul(T.T, buf[:, 2 * M:2 * M + X].reshape(L, N, 4, n * n),
                  out=e.reshape(L, N, n, n * n))
        out += e

    def add_diagonal(self, data: FaceData, diag: np.ndarray) -> None:
        """Add the face self-couplings ``scale int w (tau phi^2 + sign phi
        d_n phi)`` to the cell diagonal ``diag`` (N, n, n, n): sign -1 on
        minus and Dirichlet sides, +1 on plus sides, scale 2 on Dirichlet
        sides.  Per row the value sheet takes the tangential part and the
        normal-derivative sheet the cross term, expanded by the squared
        trace factors."""
        dt = data.c.dtype
        buf = np.empty((1, self.size), dt)
        for r0, f0, Fi, F, groups, idx, sidx in self.chunks:
            C = idx.shape[1]
            faces = np.r_[f0:f0 + F, f0:f0 + Fi]
            scale = np.ones(C, dt)
            scale[Fi:F] = 2
            w = data.jxw[faces]
            tw = (scale * data.tau[faces])[:, None] * w
            cw = np.where(np.arange(C) < F, -scale, scale)[:, None] * w * data.c[:, r0:r0 + C]
            G = np.empty((1, 2, C, self.n1 ** 2), dt)
            for kind, a, b in groups:
                KK, KKa, KKb = self._mat((kind, True), dt)
                G[0, 0, a:b] = tw[a:b] @ KK + cw[1, a:b] @ KKa + cw[2, a:b] @ KKb
                G[0, 1, a:b] = cw[0, a:b] @ KK
            buf[:, sidx] = G
        self.finish(buf)
        self.expand(buf, diag[None], Workspace(), "T2")


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
        self.fk = FaceKernels(self.kern)
        self.dirichlet_ids = tuple(dirichlet_ids)
        self.cell_metrics = geometry.cell_metrics()
        fms, bms = geometry.all_face_metrics(connectivity)
        pen = penalty_factor * (dof.degree + 1) ** 2
        dirichlet = [(b, fm) for b, fm in zip(connectivity.boundary, bms)
                     if b.boundary_id in self.dirichlet_ids]
        # the index plan is shared with dtype clones, the face data cast
        self.face_loop = FaceLoop.of(self.kern, dof.n_cells, connectivity.interior,
                                     [b for b, _ in dirichlet])
        faces = list(fms) + [fm for _, fm in dirichlet]
        qq = self.kern.n_q_points ** 2
        rows, fs = self.face_loop.src_rows, self.face_loop.src_faces
        self.face_data = FaceData(
            np.concatenate([np.zeros((3, 0, qq))] + [fm.c_m for fm in fms] + [fm.c_p for fm in fms]
                           + [fm.c_m for _, fm in dirichlet], axis=1)[:, rows],
            np.concatenate([np.zeros((0, qq))] + [fm.jxw.reshape(-1, qq) for fm in faces])[fs],
            np.concatenate([np.zeros(0)] + [pen * fm.penalty for fm in faces])[fs],
        )
        # assemble_rhs: per boundary batch its quadrature points and
        # either its (face, row) positions in face_data or its own jxw
        pf, pr = self.face_loop.positions()
        t = n_int = connectivity.n_interior_faces
        self._bdry = []
        for b, fm in zip(connectivity.boundary, bms):
            if b.boundary_id in self.dirichlet_ids:
                f = np.arange(t, t + b.n_faces)
                self._bdry.append((fm.points, (pf[f], pr[f + n_int])))
                t += b.n_faces
            else:
                self._bdry.append((fm.points, fm.jxw))

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

        fl = laplace_flops(self.dof.degree, self.kern.n_q_points)
        tr = laplace_transfer(self.dof.degree, self.kern.n_q_points,
                              precision_bytes=self.precision_bytes)
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

    def _face_flux(self, jump, dn, w, tau):
        """SIP numerical flux at the quadrature points of a chunk's faces
        (minus frame) from the jump ``[u]`` and the summed normal
        derivatives ``dn`` of both sides: returns ``(rv, s)``, ``rv``
        weighting the minus-side test values (the plus side gets
        ``-rv``) and ``s = -0.5 [u] w`` the test normal derivatives of
        both sides.  The one hook of :meth:`FaceLoop.run`."""
        return (tau[:, None] * jump - 0.5 * dn) * w, (-0.5) * jump * w

    def vmult(self, x: np.ndarray) -> np.ndarray:
        """``x`` is (ndof,) or batch-stacked ``(*lead, ndof)``: the
        leading axes ride along in front of the same kernels."""
        u = self.dof.cell_view(x)
        ws = self.workspace()
        out = cell_laplacian(self.kern, self.cell_metrics.laplace_d, u, ws)
        loop, data = self.face_loop, self.face_data
        u = u.reshape((-1,) + u.shape[-4:])
        buf = ws.take("sip.sheets", (u.shape[0], loop.size),
                      np.result_type(u.dtype, data.c.dtype))
        loop.sheets(u, buf)
        loop.run(buf, data, loop.chunks, self._face_flux, ws)
        loop.finish(buf)
        loop.expand(buf, out.reshape(u.shape), ws)
        return self.dof.flat(out)

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
        # evaluate the boundary data first: an ensemble-stacked return
        # from any callable promotes the whole right-hand side to (E, .)
        face_data: list[tuple] = []
        lead: tuple = ()
        for ib, (batch, (p, rows)) in enumerate(zip(self.conn.boundary, self._bdry)):
            if batch.boundary_id in self.dirichlet_ids:
                if dirichlet is None:
                    continue
                g_fn = (
                    dirichlet.get(batch.boundary_id)
                    if isinstance(dirichlet, dict)
                    else dirichlet
                )
                if g_fn is None:
                    continue
                g = np.asarray(g_fn(p[:, 0], p[:, 1], p[:, 2]))
            else:
                if neumann is None:
                    continue
                g = np.asarray(neumann(p[:, 0], p[:, 1], p[:, 2]))
            if g.ndim == 4:
                if lead and g.shape[:1] != lead:
                    raise ValueError(
                        "inconsistent ensemble sizes in boundary data: "
                        f"{g.shape[0]} vs {lead[0]}"
                    )
                lead = g.shape[:1]
            face_data.append((ib, batch, rows, g))
        out = np.zeros(lead + (self.dof.n_cells,) + (self.kern.n_dofs_1d,) * 3)
        if f is not None:
            pts = self.cell_metrics.points
            fv = f(pts[:, 0], pts[:, 1], pts[:, 2]) * self.cell_metrics.jxw
            out += self.kern.integrate_values(fv)
        fk, fd = self.fk, self.face_data
        for ib, batch, rows, g in face_data:
            # member-independent data broadcasts across the batch in the
            # scatter
            shape = g.shape[-3:]
            if isinstance(rows, tuple):  # Dirichlet: rows of face_data
                f, r = rows
                w = fd.jxw[f].reshape(shape)
                # (n, a, b) frame components back to the cell's own order
                own = np.argsort([batch.face // 2, *tangential_dims(batch.face)])
                c = fd.c[own][:, r].reshape((3,) + shape)
                rv = 2.0 * fd.tau[f][:, None, None] * g * w
                # test reference-gradient coefficients of -g w n
                contrib = fk.integrate_side(batch.face, rv, np.stack([cj * (-g * w) for cj in c]))
            else:
                contrib = fk.integrate_side(batch.face, g * rows, None)
            self._scatter_add(out, batch.cells, contrib, ("bdy", ib), axis=len(lead))
        return self.dof.flat(out)

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Exact operator diagonal by closed-form tensor evaluation: the
        cell part by the squared-1D-factor einsum trick
        (:func:`_cell_laplace_diagonal`), the face self-couplings by one
        pass of the face loop (:meth:`FaceLoop.add_diagonal`) instead of
        one full operator application per local basis function."""
        diag = _cell_laplace_diagonal(self.kern, self.cell_metrics.laplace_d)
        self.face_loop.add_diagonal(self.face_data, diag)
        return self.dof.flat(diag)


class CGLaplaceOperator(MatrixFreeOperator):
    """Continuous finite element Laplacian with hanging-node constraints
    and strong Dirichlet conditions (via the constraint machinery of
    :class:`~repro.core.dof_handler.CGDofHandler`)."""

    def __init__(self, dof: CGDofHandler, geometry: GeometryField) -> None:
        if geometry.degree != dof.degree:
            raise ValueError("geometry kernel degree must match the dof space")
        self.dof = dof
        self.kern = geometry.kernel
        self.cell_metrics = geometry.cell_metrics()

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        """Cell-only Flop count; transfer = global vectors + cell metric
        (gather/scatter indirection is extra memory, not Flops)."""
        from ...perf.flops import cg_laplace_flops

        nq = self.kern.n_q_points
        fl = cg_laplace_flops(self.dof.degree, nq)
        pb = self.precision_bytes
        vec_bytes = 3.0 * pb * self.n_dofs
        metric_bytes = 6.0 * nq**3 * pb * self.dof.n_cells
        return {
            "flops": float(fl.matvec_total(self.dof.n_cells, 0, 0)),
            "bytes": vec_bytes + metric_bytes,
            "dofs": float(self.n_dofs),
        }

    def vmult(self, x: np.ndarray) -> np.ndarray:
        u = self.dof.gather_cells(x)
        ws = self.workspace()
        D = self.cell_metrics.laplace_d
        # scatter_add_cells reduces into a fresh global vector, so the
        # workspace-owned cell residual never escapes
        r = ws.take("lap.out", u.shape, np.result_type(D.dtype, u.dtype))
        return self.dof.scatter_add_cells(cell_laplacian(self.kern, D, u, ws, r))

    def diagonal(self) -> np.ndarray:
        """Jacobi diagonal: local cell diagonals accumulated with squared
        constraint weights (the standard matrix-free approximation),
        ``(G∘G)ᵀ · ldiag`` through the handler's cell map."""
        ldiag = _cell_laplace_diagonal(self.kern, self.cell_metrics.laplace_d)
        _, Gt = self.dof.cell_map(ldiag.dtype)
        return Gt.power(2) @ ldiag.reshape(-1)
