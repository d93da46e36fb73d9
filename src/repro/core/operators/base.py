"""Shared machinery of the matrix-free operators (Eq. (7)).

Every DG operator is a sum of cell contributions
``G_e^T I_e^T D_e I_e G_e`` and face contributions
``G_f^T I_f^T D_f I_f G_f``.  :class:`FaceLoop` is the one face path of
every operator: each face side — interior minus, interior plus, boundary
of any id — is a row of one chunked sheet gather, flux block and sheet
scatter, whatever its face number, orientation or subface.  The SIP
Laplacian runs its flux on value and normal-derivative sheets
(:meth:`FaceLoop.run`); the flow operators read value rows only
(:meth:`FaceLoop.apply`, one flux callable per operator), a mixed-space
operator gathering in its trial space's loop and scattering in its test
space's loop over the same table.  :func:`value_faces` builds a value
loop and the face metrics in its order once per geometry and
connectivity; boundary data is evaluated once per id on all of that
id's points (:meth:`FaceLoop.boundary_data`).

Conventions: all quantities on a face live in the *minus* frame.  The
loops read and write lane blocks ``(*lead, [3,] n, n, n, N)``, which
ride the loop's leading axis as ``ul.reshape((-1,) + ul.shape[-4:])`` —
three scalar fields per ensemble member, members major — with no copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ...mesh.connectivity import Orientation, orient_face_array
from ...telemetry import TRACER
from ..backend import DEFAULT_DTYPE
from ..plans import SCRATCH


def tangential_dims(face: int) -> tuple[int, int]:
    """Reference dimensions (a, b) of the face frame: higher dim first."""
    d = face // 2
    rem = [dd for dd in (2, 1, 0) if dd != d]
    return rem[0], rem[1]


#: face-side rows per chunk of :class:`FaceLoop` (minus, plus and
#: boundary rows together; buffers are O(chunk))
_FACE_CHUNK = 1024


def _matmul_rows(a, b, out, r0: int, r1: int) -> None:
    """``out[..., r0:r1, :] = a[..., r0:r1, :] @ b``, a one-row product
    doubled: BLAS rounds its one-row (gemv) path differently, and a row's
    result must not depend on the chunk (or lane block) it lands in.
    ``a`` and ``out`` may be transposed views (row-minor blocks, lanes)."""
    a = a[..., r0:r1, :]
    if r1 - r0 == 1:
        out[..., r0, :] = np.matmul(np.concatenate([a, a], axis=-2), b)[..., 0, :]
    else:
        np.matmul(a, b, out=out[..., r0:r1, :])


def _scatter(buf: np.ndarray, sidx: np.ndarray, G: np.ndarray) -> None:
    """``buf[:, sidx] = G`` row by row: ``intp`` slots on a 1-D row take
    NumPy's fast path, not its slow mixed-indexing one."""
    for row, g in zip(buf, G):
        row[sidx] = g


class Chunk(NamedTuple):
    """Rows of :class:`FaceLoop` from loop row ``r0``: minus ``[0, Fi)``,
    boundary ``[Fi, F)``, plus ``[F, C)``; faces from loop face ``f0``,
    boundary faces from ``b0``; ``(kind, first, end)`` row ``groups``;
    gather/scatter slots ``idx``/``sidx`` ``(sheets // 2, n*n, C)``
    (``sidx`` intp, see :func:`_scatter`; a two-sheet loop gathers
    lane-block nodes)."""

    r0: int
    f0: int
    b0: int
    Fi: int
    F: int
    groups: list
    idx: np.ndarray
    sidx: np.ndarray


@dataclass
class FaceValues:
    """Face metrics of a value loop (:func:`value_faces`), in loop order.

    normal: (3, faces, q*q)   outward unit normal of the minus side
    jxw:    (faces, q*q)      surface element x quadrature weight
    points: (3, bfaces, q*q)  quadrature points of the boundary faces
    """

    normal: np.ndarray
    jxw: np.ndarray
    points: np.ndarray


class FaceLoop:
    """The planned face loop: the one face path of every operator.

    Every face side is one *row*: the minus and plus side of an interior
    face, the one side of a boundary face.  A row reads nodal sheets of
    its cell on its face and writes residual sheets back to the same
    slot.  The loop reads and writes the cell kernels' lane blocks
    ``(L, n, n, n, N)``: per direction ``d`` one GEMM of ``T`` with
    ``N``-wide right-hand sides gives the sheets of both faces of every
    cell (:meth:`sheets`), ``[e_0; e_k]`` the values (``sheets=2``, all
    the flow fluxes read), ``[e_0; e_k; phi'(0); phi'(1)]`` the normal
    derivatives too (``sheets=4``: the SIP flux, wall gradients); the
    transposed GEMM adds them into the lane residual (:meth:`expand`).
    Sheet slots run ``(direction, sheet, node, cell)``; a value sheet is
    a slice of the nodes, so two-sheet rows gather from the lane block.
    A row's slot indices fold in its orientation, so every row goes
    through the same few array operations per chunk; stored row-minor,
    a gather lands as ``(n*n, C)`` and BLAS reads it transposed.

    ``interior`` is ``(cells_m, face_m, cells_p, face_p, code, kind)``
    per interior face (``code`` the orientation code, ``kind`` 0 for a
    conforming face and ``1 + 2 sa + sb`` for 2:1 subface ``(sa, sb)``),
    ``boundary`` is ``(cells, face, boundary_id)``; together they are
    the *table*: table rows are the minus sides, the plus sides, then
    the boundary sides, table faces the interior then the boundary
    faces.  Two loops over one table (two spaces, or two sheet counts)
    have identical chunks, so a mixed-space operator gathers in its
    trial loop and scatters in its test loop chunk by chunk.  Cells at
    or above ``n_out`` are read but never expanded (ghosts); they are
    a lane block of their own, the sheets of ``[0, n_out)`` first.
    Each of ``phases`` — ``(interior mask, boundary mask)`` pairs, by
    default everything — is chunked on its own, so a rank can run its
    owned faces while ghost data is in flight.  Scratch comes from the
    process arena (:data:`~repro.core.plans.SCRATCH`); loops run one at
    a time, a trial and a test loop working together use distinct tags.
    """

    #: boundary-face quadrature points (3, bfaces, q*q) in loop order, where
    #: the SIP operator evaluates its data (shared with its dtype clones)
    points = None

    def __init__(self, kern, n_cells: int, n_out: int, interior, boundary,
                 phases=None, sheets: int = 4) -> None:
        self.kern = kern
        self.table = (interior, boundary)
        n = self.n1 = kern.n_dofs_1d
        nn = n * n
        s, ks = self.n_sheets, self.ks = sheets, sheets // 2
        (cm, fm, cp, fp, code, kind), (cd, fd, bd) = interior, boundary
        Fi = cm.size
        M = n_cells * s * nn
        row_cell = np.concatenate([cm, cp, cd])
        row_face = np.concatenate([fm, fp, fd])
        row_code = np.concatenate([0 * cm, code, 0 * cd])
        row_kind = np.concatenate([0 * cm, kind, 0 * cd])
        # a row's slot: its cell's lane in its lane block (the expanded
        # cells, then the ghosts) + the block width x its (direction,
        # sheet, node) position in the minus frame (``pat``)
        ghost = row_cell >= n_out
        row_lane = np.where(ghost, 3 * s * nn * n_out + row_cell - n_out, row_cell)
        row_width = np.where(ghost, n_cells - n_out, n_out)
        lat = np.arange(n)
        own = lat[:, None] * n + lat[None, :]
        pat = np.empty((6, 8, ks, nn), np.int64)
        node = np.empty((6, 8, nn), np.int64)
        for f in range(6):
            d, side = divmod(f, 2)
            a, b = tangential_dims(f)
            on = side * (n - 1) * n ** d + lat[:, None] * n ** a + lat[None, :] * n ** b
            for oc in range(8):
                o = Orientation(bool(oc & 4), bool(oc & 2), bool(oc & 1))
                node[f, oc] = orient_face_array(on, o).reshape(nn)
                for kap in range(ks):
                    pat[f, oc, kap] = ((d * s + 2 * kap + side) * nn
                                       + orient_face_array(own, o).reshape(nn))
        if phases is None:
            phases = ((np.ones(Fi, bool), np.ones(cd.size, bool)),)
        self.phases, src_rows, src_faces, sub = [], [], [], []
        r0 = f0 = b0 = 0
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
                idx = (row_lane[rows, None, None]
                       + row_width[rows, None, None] * pat[row_face[rows], row_code[rows]])
                # subface rows write private slots, added onto the coarse
                # face's slot by :meth:`finish`
                hang = np.flatnonzero(k)
                ext = 3 * M + ks * nn * (len(sub) + np.arange(hang.size))[:, None, None]
                ext = ext + np.arange(ks * nn).reshape(ks, nn)
                sub += zip(k[hang], idx[hang], ext)
                # a conforming chunk gathers and scatters the same slots
                gidx = sidx = np.ascontiguousarray(idx.transpose(1, 2, 0), np.intp)
                if hang.size:
                    gidx = gidx.astype(np.int32)
                    sidx[:, :, hang] = ext.transpose(1, 2, 0)
                if ks == 1:  # a value sheet is a slice of the cells' nodes
                    gidx = np.ascontiguousarray((row_cell[rows, None] + n_cells * node[
                        row_face[rows], row_code[rows]]).T[None], np.int32)
                chunks.append(Chunk(r0, f0, b0, Ij.size, Ij.size + Dj.size, groups, gidx, sidx))
                src_rows.append(rows)
                src_faces.append(np.concatenate([Ij, Dj - Fi]))
                r0 += rows.size
                f0 += Ij.size + Dj.size
                b0 += Dj.size
            self.phases.append(chunks)
        self.chunks = [ch for phase in self.phases for ch in phase]
        self.size = 3 * M + ks * nn * len(sub)
        self.src_rows = np.concatenate([np.zeros(0, np.intp)] + src_rows)
        self.src_faces = np.concatenate([np.zeros(0, np.intp)] + src_faces)
        #: table boundary face, loop face and boundary id of every
        #: boundary face in loop order
        self.bsrc = self.src_faces[self.src_faces >= Fi] - Fi
        self.bface = np.flatnonzero(self.src_faces >= Fi)
        self.bids = bd[self.bsrc]
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
        self.zero = np.sort((c0[:, None, None] + n_out * pat[f0, 0]).ravel())
        self._mats: dict = {}

    @classmethod
    def of(cls, kern, n_cells: int, interior, boundary, sheets: int = 4) -> "FaceLoop":
        """The loop over the face batches ``interior`` and the boundary
        batches ``boundary`` of one mesh."""
        def col(batches, value):
            return np.concatenate([np.zeros(0, np.intp)] + [
                np.broadcast_to(value(b), b.n_faces).astype(np.intp) for b in batches])

        return cls(kern, n_cells, n_cells, tuple(col(interior, v) for v in (
            lambda b: b.cells_m, lambda b: b.face_m, lambda b: b.cells_p,
            lambda b: b.face_p, lambda b: b.orientation.code,
            lambda b: 0 if b.subface is None else 1 + 2 * b.subface[0] + b.subface[1],
        )), tuple(col(boundary, v) for v in (
            lambda b: b.cells, lambda b: b.face, lambda b: b.boundary_id,
        )), sheets=sheets)

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
            T = np.stack([sh.face_value[0], sh.face_value[1], sh.face_grad[0],
                          sh.face_grad[1]])[:self.n_sheets]
            if key == "T2":  # squared trace factors of the diagonal
                T = np.concatenate([T[:2] ** 2, T[:2] * T[2:]])
            return T, T.T
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
        """Write the sheets of both faces per direction of the lane block
        ``u`` (L, n, n, n, N) into ``buf`` as cells ``lo, lo + 1, ...``
        (``lo`` 0 or the first ghost): per direction one GEMM of ``T``
        with ``N``-wide right-hand sides, laid out (s, n, n, N)."""
        L, N, n, s = u.shape[0], u.shape[-1], self.n1, self.n_sheets
        T, Tt = self._mat("T", buf.dtype)
        a = 3 * s * n * n * lo
        blk = buf[:, a:a + 3 * s * n * n * N].reshape(L, 3, s, n, n, N)
        _matmul_rows(u.swapaxes(-1, -2), Tt, blk[:, 0].transpose(0, 2, 3, 4, 1), 0, N)
        np.matmul(T, u.reshape(L, n, n, n * N),
                  out=blk[:, 1].reshape(L, s, n, n * N).transpose(0, 2, 1, 3))
        np.matmul(T, u.reshape(L, n, n * n * N), out=blk[:, 2].reshape(L, s, n * n * N))

    def run(self, buf: np.ndarray, data, chunks) -> None:
        """The SIP face terms of ``chunks`` (four sheets; ``data`` a
        :class:`~repro.core.operators.laplace.FaceData`): per chunk one
        gather of the rows' sheets, per interpolation kind the GEMMs to
        ``v, d_n v, d_a v, d_b v`` (no ``d_a v, d_b v`` for a normal-only
        ``data.b``) at the quadrature points, one flux block, the
        transposed GEMMs and one scatter of the residual sheets."""
        L, dt = buf.shape[0], buf.dtype
        nn, qq, k = self.n1 ** 2, data.a.shape[1], len(data.b)
        for r0, f0, _, Fi, F, groups, idx, sidx in chunks:
            C = idx.shape[2]
            G = SCRATCH.take("sip.G", (L, 2, nn, C), dt)
            np.take(buf, idx, axis=1, out=G, mode="clip")
            Gt = G.swapaxes(-1, -2)
            Q = SCRATCH.take("sip.Q", (L, 1 + k, C, qq), dt)
            mats = [(self._mat((kind, False), dt), a, b) for kind, a, b in groups]
            for (_, Kt, _, KDt), a, b in mats:
                _matmul_rows(Gt[:, :2], Kt, Q[:, :2], a, b)
                if k > 1:
                    _matmul_rows(Gt[:, :1], KDt, Q[:, 2:], a, b)
            # rows: minus sides [0, Fi), Dirichlet sides [Fi, F), plus
            # sides [F, C).  rv = a [u] + sum_i b_i d_i u over both sides
            # tests the values (-rv on plus rows), b [u] the derivatives;
            # a Dirichlet row's [u] is u_m (its mirror ghost is folded into
            # doubled a, b); [u] lands in the consumed gather (2n^2 >= q^2)
            ca, cb = data.a[f0:f0 + F], data.b[:, r0:r0 + C]
            v, db = Q[:, 0], np.multiply(cb[0], Q[:, 1], out=Q[:, 1])
            for i in range(1, k):
                db += np.multiply(cb[i], Q[:, 1 + i], out=Q[:, 1 + i])
            jump = G.reshape(L, -1)[:, :F * qq].reshape(L, F, qq)
            np.subtract(v[:, :Fi], v[:, F:], out=jump[:, :Fi])
            jump[:, Fi:] = v[:, Fi:F]
            rv = np.multiply(ca, jump, out=v[:, :F])
            rv += db[:, :F]
            rv[:, :Fi] += db[:, F:]
            np.negative(rv[:, :Fi], out=v[:, F:])
            for i in range(k):
                np.multiply(cb[i, :F], jump, out=Q[:, 1 + i, :F])
                np.multiply(cb[i, F:], jump[:, :Fi], out=Q[:, 1 + i, F:])
            for (K, _, _, _), a, b in mats:
                _matmul_rows(Q[:, :2], K, Gt[:, :2], a, b)
            if k > 1:
                # the derivative back-GEMMs land in the consumed Q[:, :2]
                # (n_q >= k + 1, so they fit)
                T = Q.reshape(L, -1)[:, :2 * C * nn].reshape(L, 2, nn, C)
                for (_, _, KD, _), a, b in mats:
                    _matmul_rows(Q[:, 2:], KD, T.swapaxes(-1, -2), a, b)
                G[:, 0] += T[:, 0]
                G[:, 0] += T[:, 1]
            _scatter(buf, sidx, G)

    def _rows(self, ch: Chunk, rows):
        """Row runs and selector of ``rows``: every row of the chunk, or a
        slice of its (conforming) minus and boundary rows."""
        if rows is None:
            return ch.groups, slice(None)
        return [(0, 0, rows.stop - rows.start)], rows

    def trace(self, buf: np.ndarray, ch: Chunk, rows=None, full: bool = False):
        """Quadrature-point data of the rows ``rows`` (default: every
        row) of chunk ``ch`` from ``buf`` — the sheets of a four-sheet
        loop, the lane block ``(L, n^3 N)`` of a two-sheet one: values
        ``(L, C, q*q)``, or with ``full`` (four sheets) ``(L, 4, C,
        q*q)`` — ``v, d_n v, d_a v, d_b v`` in the minus frame."""
        groups, sel = self._rows(ch, rows)
        k = 2 if full else 1
        idx = ch.idx[:k, :, sel]
        L, dt, C = buf.shape[0], buf.dtype, idx.shape[2]
        G = SCRATCH.take("fl.G", (L, k, self.n1 ** 2, C), dt)
        np.take(buf, idx, axis=1, out=G, mode="clip")
        Q = SCRATCH.take("fl.Q", (L, 4 if full else 1, C, self.kern.n_q_points ** 2), dt)
        for kind, a, b in groups:
            _, Kt, _, KDt = self._mat((kind, False), dt)
            _matmul_rows(G.swapaxes(-1, -2), Kt, Q[:, :k], a, b)
            if full:
                _matmul_rows(G[:, :1].swapaxes(-1, -2), KDt, Q[:, 2:], a, b)
        return Q if full else Q[:, 0]

    def integrate(self, R: np.ndarray, ch: Chunk, buf: np.ndarray, rows=None) -> None:
        """Adjoint of :meth:`trace`: test the rows' quadrature weights
        ``R`` — ``(L, C, q*q)`` of the values, or ``(L, 4, C, q*q)`` of
        ``v, d_n v, d_a v, d_b v`` — and scatter the residual sheets into
        ``buf``."""
        groups, sel = self._rows(ch, rows)
        full = R.ndim == 4
        k = 2 if full else 1
        sidx = ch.sidx[:k, :, sel]
        L, dt, C = R.shape[0], buf.dtype, sidx.shape[2]
        # the trace's scratch is free again (``R`` must not live in it)
        G = SCRATCH.take("fl.G", (L, k, self.n1 ** 2, C), dt)
        if full:
            T = SCRATCH.take("fl.Q", (L, 2, self.n1 ** 2, C), dt)
        for kind, a, b in groups:
            K, _, KD, _ = self._mat((kind, False), dt)
            if full:
                _matmul_rows(R[:, :2], K, G.swapaxes(-1, -2), a, b)
                _matmul_rows(R[:, 2:], KD, T.swapaxes(-1, -2), a, b)
                G[:, 0, :, a:b] += T[:, 0, :, a:b]
                G[:, 0, :, a:b] += T[:, 1, :, a:b]
            else:
                _matmul_rows(R, K, G[:, 0].swapaxes(-1, -2), a, b)
        _scatter(buf, sidx, G)

    def apply(self, u: np.ndarray, out: np.ndarray, flux, test: "FaceLoop | None" = None) -> None:
        """``out`` (L', m, m, m, N) += the face terms of the lane block
        ``u`` (L, n, n, n, N): per chunk the rows' values (:meth:`trace`),
        one flux block ``flux(v, chunk)`` returning the test weights
        ``rv`` (..., F, q*q) of the minus and boundary rows (``-rv`` tests
        a plus row) and one :meth:`integrate` into the sheets of ``test``
        (default ``self``; a loop over the same table in the test
        space), then :meth:`finish` and :meth:`expand`."""
        test, src = self if test is None else test, u.reshape(u.shape[0], -1)
        dst = SCRATCH.take("fl.dst", (out.shape[0], test.size), out.dtype)
        for ch, tch in zip(self.chunks, test.chunks):
            rv = flux(self.trace(src, ch), ch)
            rv = rv.reshape((-1,) + rv.shape[-2:])
            test.integrate(np.concatenate([rv, -rv[:, :ch.Fi]], axis=1), tch, dst)
        test.finish(dst)
        test.expand(dst, out)

    def boundary_values(self, u: np.ndarray) -> np.ndarray:
        """Values ``(L, bfaces, q*q)`` of the lane block ``u`` (L, n, n,
        n, N) at the quadrature points of every boundary face, loop
        order."""
        src = u.reshape(u.shape[0], -1)
        out = np.empty((u.shape[0], self.bids.size, self.kern.n_q_points ** 2), u.dtype)
        for ch in self.chunks:
            out[:, ch.b0:ch.b0 + ch.F - ch.Fi] = self.trace(src, ch, slice(ch.Fi, ch.F))
        return out

    def boundary_data(self, points: np.ndarray, fns: dict, comps: int = 0,
                      dtype=DEFAULT_DTYPE) -> np.ndarray:
        """Boundary data in loop order: every ``fns[id](x, y, z)`` is
        called once on the quadrature points of all faces of its id
        (``points`` (3, bfaces, q*q)); returns ``(*lead, (3,) * comps,
        bfaces, q*q)``, zero on the faces of other ids.  Data with a
        leading member axis ``(E, ...)`` promotes the result to it;
        member-independent data broadcasts across it."""
        q = self.kern.n_q_points
        vals, leads = [], []
        for bid, fn in fns.items():
            pos = np.flatnonzero(self.bids == bid)
            if fn is None or not pos.size:
                continue
            x, y, z = (points[i, pos].reshape(-1, q, q) for i in range(3))
            g = np.asarray(fn(x, y, z))
            if g.ndim < comps + 3:
                g = np.broadcast_to(g, (3,) * comps + x.shape)
            vals.append((pos, g.reshape(g.shape[:-2] + (q * q,))))
            leads.append(g.shape[:g.ndim - 3 - comps])
        try:
            lead = np.broadcast_shapes(*leads)
        except ValueError:
            raise ValueError(f"inconsistent ensemble sizes in boundary data: {leads}") from None
        out = np.zeros(lead + (3,) * comps + (self.bids.size, q * q), dtype)
        for pos, g in vals:
            out[..., pos, :] = g
        return out

    def finish(self, buf: np.ndarray) -> None:
        """Zero the slots no conforming row writes, then add the subface
        rows of every coarse face onto its slot in subface order."""
        buf[:, self.zero] = 0
        for main, src in self.fold:
            buf[:, main] += buf[:, src]

    def expand(self, buf: np.ndarray, out: np.ndarray, key: str = "T") -> None:
        """``out`` (L, n, n, n, N), the lane block of cells ``0..N-1``,
        += their residual sheets expanded by the transposed
        :meth:`sheets` GEMMs."""
        L, N, n, s = out.shape[0], out.shape[-1], self.n1, self.n_sheets
        T, Tt = self._mat(key, buf.dtype)
        blk = buf[:, :3 * s * n * n * N].reshape(L, 3, s, n, n, N)
        e = SCRATCH.take("sip.E", out.shape, buf.dtype)
        _matmul_rows(blk[:, 0].transpose(0, 2, 3, 4, 1), T, e.swapaxes(-1, -2), 0, N)
        out += e
        np.matmul(Tt, blk[:, 1].reshape(L, s, n, n * N).transpose(0, 2, 1, 3),
                  out=e.reshape(L, n, n, n * N))
        out += e
        np.matmul(Tt, blk[:, 2].reshape(L, s, n * n * N), out=e.reshape(L, n, n * n * N))
        out += e

    def add_diagonal(self, data, diag: np.ndarray) -> None:
        """Add the SIP face self-couplings ``int a phi^2 + 2 sign b phi
        d phi`` to the lane block ``diag`` (n, n, n, N): sign +1 on minus
        and Dirichlet sides, -1 on plus sides.  Per row the value sheet
        takes the tangential part and the normal-derivative sheet the
        cross term, expanded by the squared trace factors."""
        dt = data.a.dtype
        buf = np.empty((1, self.size), dt)
        for r0, f0, _, Fi, F, groups, idx, sidx in self.chunks:
            C = idx.shape[2]
            tw = data.a[np.r_[f0:f0 + F, f0:f0 + Fi]]
            cw = np.where(np.arange(C) < F, 2, -2)[:, None] * data.b[:, r0:r0 + C]
            G = np.empty((1, 2, C, self.n1 ** 2), dt)
            for kind, a, b in groups:
                KK, *KKt = self._mat((kind, True), dt)
                G[0, 0, a:b] = sum((x[a:b] @ m for x, m in zip(cw[1:], KKt)), tw[a:b] @ KK)
                G[0, 1, a:b] = cw[0, a:b] @ KK
            _scatter(buf, sidx, G.swapaxes(-1, -2))
        self.finish(buf)
        self.expand(buf, diag[None], "T2")


def value_faces(geometry, conn, kern=None) -> tuple[FaceLoop, FaceValues]:
    """The two-sheet loop of ``kern`` (default: the geometry's kernel)
    over every face of ``conn`` and ``geometry``'s face metrics in its
    order; both built once per (geometry, connectivity[, kernel]) and
    shared by every operator that asks."""
    kern = geometry.kernel if kern is None else kern
    cache = geometry.face_loops.get(id(conn))
    if cache is None or cache["conn"] is not conn:
        cache = geometry.face_loops[id(conn)] = {"conn": conn}
    key = (kern.n_dofs_1d, kern.n_q_points)
    if key not in cache:
        cache[key] = FaceLoop.of(kern, geometry.n_cells, conn.interior, conn.boundary, sheets=2)
    loop = cache[key]
    if "data" not in cache:
        fms, bms = geometry.all_face_metrics(conn)
        qq = geometry.kernel.n_q_points ** 2
        cache["data"] = FaceValues(
            in_loop_order([fm.normal for fm in fms + bms], loop.src_faces, (3, qq)),
            in_loop_order([fm.jxw for fm in fms + bms], loop.src_faces, (qq,)),
            in_loop_order([fm.points for fm in bms], loop.bsrc, (3, qq)),
        )
    return loop, cache["data"]


def in_loop_order(arrays, faces: np.ndarray, shape: tuple) -> np.ndarray:
    """Per-batch face arrays ``(F, *shape)`` (face lattice flattened),
    concatenated in table order and taken at the table ``faces`` of a
    loop's order, face axis second to last: ``(..., faces, q*q)``."""
    a = np.concatenate([np.zeros((0,) + shape)] + [x.reshape((-1,) + shape) for x in arrays])
    return np.ascontiguousarray(np.moveaxis(a[faces], 0, -2))


def dirichlet_rows(loop: FaceLoop, points, ids, value, t: float, comps: int, dtype,
                   homogeneous: bool = False):
    """Dirichlet data ``value(id, x, y, z, t)`` of ``ids`` in ``loop``'s
    boundary order with the rows it replaces: ``(data (E|1, (3,) *
    comps, bfaces, q*q), mask (bfaces, 1))``; zero data when
    ``homogeneous``."""
    fns = {} if homogeneous else {
        bid: (lambda x, y, z, _b=bid: value(_b, x, y, z, t)) for bid in ids}
    g = loop.boundary_data(points, fns, comps, dtype)
    trail = g.shape[g.ndim - 2 - comps:]
    return (g.reshape((int(np.prod(g.shape[:g.ndim - 2 - comps])),) + trail),
            np.isin(loop.bids, list(ids))[:, None])


def _instrument_entry(raw):
    """Wrap an operator-application entry point with telemetry.

    When the tracer is enabled, one application opens a
    ``vmult[<ClassName>]`` span (whose ``count`` is the number of
    applications) and annotates it with the operator's analytic own-work
    model (flops / bytes / dofs) so the roofline attribution can compute
    achieved GFlop/s and GB/s per kernel.  When disabled the wrapper is
    a single attribute check in front of the raw method.
    """

    @functools.wraps(raw)
    def wrapped(self, x, *args, **kwargs):
        if not TRACER.enabled:
            return raw(self, x, *args, **kwargs)
        name = type(self).__name__
        with TRACER.span("vmult[" + name + "]"):
            wm = self.work_model()
            # a (*lead, n) stack does prod(lead) vectors' worth of work in
            # one application — scale the own-work annotation accordingly
            scale = float(np.prod(np.shape(x)[:-1]))
            TRACER.annotate(
                scale * wm["flops"], scale * wm["bytes"], scale * wm["dofs"]
            )
            return raw(self, x, *args, **kwargs)

    wrapped.__instrumented__ = True
    return wrapped


class MatrixFreeOperator:
    """Minimal linear-operator interface shared by all operators.

    Every operator carries a lazily created plan cache holding its work
    model per compute dtype; shallow clones (e.g. the float32 operators
    inside the multigrid V-cycle) share it.  Scratch buffers are not
    per operator: every application takes them from the process arena
    (:data:`~repro.core.plans.SCRATCH`).

    Subclasses are instrumented automatically: the outermost application
    entry point each class defines itself (``apply`` when present — the
    nonlinear/affine operators route ``vmult`` through it — else
    ``vmult``) is wrapped with the span + work-model telemetry of
    :func:`_instrument_entry`.  Operators composed of other instrumented
    operators (Helmholtz, the vector Laplacian, the penalty step) report
    only their *own* work; the inner operators annotate their nested
    spans themselves.
    """

    dtype = DEFAULT_DTYPE

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for entry in ("apply", "vmult"):
            fn = cls.__dict__.get(entry)
            if fn is not None and not getattr(fn, "__instrumented__", False):
                setattr(cls, entry, _instrument_entry(fn))
                break

    @property
    def precision_bytes(self) -> int:
        """Bytes per value at the operator's compute dtype — the knob the
        analytic transfer models scale with (a float32 clone reports half
        the bytes of its float64 master, doubling the modelled AI)."""
        return int(np.dtype(self.dtype).itemsize)

    def work_model(self) -> dict:
        """Cached analytic own-work model of one application:
        ``{"flops", "bytes", "dofs"}`` (see :mod:`repro.perf.flops` /
        :mod:`repro.perf.memory`).  Keyed by compute dtype because
        shallow dtype clones share the plan cache but move half the
        bytes."""
        cache = self.__dict__.setdefault("_plan_cache", {})
        key = ("work_model", np.dtype(self.dtype).str)
        wm = cache.get(key)
        if wm is None:
            wm = cache[key] = self._build_work_model()
        return wm

    def _build_work_model(self) -> dict:
        """Default: a pure vector-stream model (read the source, write +
        read-for-update the destination; no Flop estimate).  Operators
        with analytic Flop/transfer counts override this."""
        n = float(self.n_dofs)
        return {"flops": 0.0, "bytes": 3.0 * self.precision_bytes * n, "dofs": n}

    @property
    def n_dofs(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def vmult(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.vmult(x)
