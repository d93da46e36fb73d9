"""High-order polynomial geometry representation and metric terms.

Following Heltai et al. (2021) and Section 3.3 of the paper, the analytic
geometry (transfinite cylinder mappings, deformations) is sampled *once*
at the Gauss–Lobatto lattice of every leaf cell and stored as a
polynomial geometry field; all metric terms (Jacobians, inverse
transposes, JxW, face normals) are then derived from this field with the
same sum-factorization kernels used by the operators.

Layouts
-------
* nodal geometry  ``X[c, i, nz, ny, nx]``  (i = physical component)
* cell metrics    lane blocks ``(..., qz, qy, qx, c)`` with the cells on
  the trailing axis, the layout of the cell kernels
  (:class:`CellMetrics`)
* face arrays     ``(n_faces, ..., qa, qb)`` with the face lattice on the
  trailing axes so orientation transforms apply uniformly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..core.plans import SCRATCH
from ..core.sum_factorization import TensorProductKernel
from .connectivity import FaceBatch, BoundaryBatch, MeshConnectivity, orient_face_array
from .octree import Forest


def _invert_3x3(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and inverse of a field of 3x3 matrices with the matrix
    axes leading: ``J[i, j, ...]`` of shape ``(3, 3, *rest)``.  Returns
    ``(det (*rest), inv (3, 3, *rest))``.
    """
    a = J
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    inv = np.empty(a.shape, a.dtype)
    inv[0, 0] = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    inv[0, 1] = a[0, 2] * a[2, 1] - a[0, 1] * a[2, 2]
    inv[0, 2] = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
    inv[1, 0] = a[1, 2] * a[2, 0] - a[1, 0] * a[2, 2]
    inv[1, 1] = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    inv[1, 2] = a[0, 2] * a[1, 0] - a[0, 0] * a[1, 2]
    inv[2, 0] = a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]
    inv[2, 1] = a[0, 1] * a[2, 0] - a[0, 0] * a[2, 1]
    inv[2, 2] = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    inv /= det
    return det, inv


def _face_inverse(qJ: np.ndarray) -> np.ndarray:
    """``J^{-1}`` ``(F, 3, 3, Q)`` of face Jacobians ``(F, 3, 3, qa, qb)``."""
    inv = _invert_3x3(np.moveaxis(qJ.reshape(qJ.shape[:3] + (-1,)), 0, 2))[1]
    return np.ascontiguousarray(np.moveaxis(inv, 2, 0))


def cell_sums(a: np.ndarray) -> np.ndarray:
    """Per-cell sums ``(..., q, q, q, N) -> (..., N)`` of lane quadrature
    data, each cell's values summed contiguously (NumPy's pairwise order,
    as on a cell-major array)."""
    a = a.reshape(a.shape[:-4] + (-1, a.shape[-1]))
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).sum(axis=-1)


def _jinv_n(Jinv: np.ndarray, normal: np.ndarray, face: int, o=None) -> np.ndarray:
    """``J^{-1} n`` per face point of one side, ``Jinv`` (F, 3, 3, Q),
    ``normal`` (F, 3, qa, qb), as its minus-face-frame components
    ``(n, a, b)``, contiguous (3, F, Q): the side's orientation ``o``
    swaps the tangential pair or negates a flipped one, so they weigh
    derivatives of the side's trace oriented into the minus frame."""
    d = face // 2
    a, b = [dd for dd in (2, 1, 0) if dd != d]
    sa = sb = 1.0
    if o is not None:
        sa, sb = (-1.0 if o.flip_a else 1.0), (-1.0 if o.flip_b else 1.0)
        if o.swap:
            a, b, sa, sb = b, a, sb, sa
    F = normal.shape[0]
    c = np.einsum("fjiq,fiq->jfq", Jinv[:, [d, a, b]], normal.reshape(F, 3, -1), order="C")
    c[1] *= sa
    c[2] *= sb
    return c


#: slot of entry ``(a, b)`` of a symmetric 3x3 block stored as its six
#: unique entries (row-major upper triangle) — the layout of
#: :attr:`CellMetrics.laplace_d`
SYM_SLOT = ((0, 1, 2), (1, 3, 4), (2, 4, 5))

#: the stored entries of :attr:`CellMetrics.laplace_d` by its plane count,
#: ``(b, slot)`` per row ``a``: the six unique ones, or the three diagonal
METRIC_ROWS = {6: tuple(tuple((b, SYM_SLOT[a][b]) for b in range(3)) for a in range(3)),
               3: (((0, 0),), ((1, 1),), ((2, 2),))}

#: relative size below which a metric entry is roundoff (:func:`sparsest`; deal.II MappingInfo)
METRIC_ROUNDOFF = 1e-12


def sparsest(block: np.ndarray, kept: list, dropped: list) -> np.ndarray:
    """``block[kept]`` if all of ``block[dropped]`` is roundoff against the
    largest kept entry at its point, else ``block``: one pattern per mesh."""
    small = np.abs(block[dropped]) <= METRIC_ROUNDOFF * np.abs(block[kept]).max(axis=0)
    return block[kept] if np.all(small) else block


#: the stored entries of :attr:`CellMetrics.jinv_t` by its plane count,
#: ``(l, m, plane)`` per entry ``J^{-T}[l, m]``: all nine, or the diagonal
JINV_ENTRIES = {9: tuple((l, m, 3 * l + m) for l in range(3) for m in range(3)),
                3: ((0, 0, 0), (1, 1, 1), (2, 2, 2))}


def _jinv_t_products(jinv_t: np.ndarray, x, transpose: bool, out=None) -> np.ndarray:
    """``out[r] = sum_c A[r, c] x[c]``, ``A`` = ``J^{-T}`` (``J^{-1}`` if
    ``transpose``), over the stored entries of ``jinv_t`` only: ``x`` is
    three component blocks with any leading axes (``None`` is zero), the
    result a component-major ``(3, ...)`` block, C-contiguous unless
    ``out`` is given; scratch: ``SCRATCH``'s ``metric.t``."""
    blocks = [b for b in x if b is not None]
    shape = np.broadcast_shapes(jinv_t.shape[1:], *(b.shape for b in blocks))
    dt = np.result_type(jinv_t, *blocks)
    out = np.empty((3,) + shape, dt) if out is None else out
    t, fresh = SCRATCH.take("metric.t", shape, dt), [True] * 3
    for l, m, s in JINV_ENTRIES[len(jinv_t)]:
        r, c = (m, l) if transpose else (l, m)
        if x[c] is not None:
            if fresh[r]:
                np.multiply(jinv_t[s], x[c], out=out[r])
            else:
                out[r] += np.multiply(jinv_t[s], x[c], out=t)
            fresh[r] = False
    for r in np.flatnonzero(fresh):
        out[r] = 0
    return out


def to_physical(jinv_t: np.ndarray, g) -> np.ndarray:
    """``J^{-T} g``: the reference gradient ``g[m]`` = d/dx̂_m as the
    physical one, ``[l]`` = d/dx_l."""
    return _jinv_t_products(jinv_t, g, False)


def to_reference(jinv_t: np.ndarray, v) -> np.ndarray:
    """``J^{-1} v``: a physical vector in the reference frame (on the test
    side, a physical gradient coefficient as the reference one)."""
    return _jinv_t_products(jinv_t, v, True)


def isotropic_to_reference(jinv_t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`to_reference` of ``s e_i`` for each component ``i``: the
    reference-gradient coefficients ``(3, ..., 3_i, q, q, q, N)`` of the
    test term ``s div v``."""
    out = np.empty((3,) + s.shape[:-4] + (3,) + s.shape[-4:], np.result_type(jinv_t, s))
    for i in range(3):
        _jinv_t_products(jinv_t, [s if m == i else None for m in range(3)], True,
                         out[..., i, :, :, :, :])
    return out


def trace(G: np.ndarray) -> np.ndarray:
    """The divergence ``sum_i G[i, ..., i, q, q, q, N]`` of a physical
    gradient (:func:`to_physical`)."""
    return G[0, ..., 0, :, :, :, :] + G[1, ..., 1, :, :, :, :] + G[2, ..., 2, :, :, :, :]


def normal_dot(normal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``n . v`` per face point: ``normal`` (3, F, q), ``v`` (..., 3, F, q)."""
    return normal[0] * v[..., 0, :, :] + normal[1] * v[..., 1, :, :] + normal[2] * v[..., 2, :, :]


@dataclass
class CellMetrics:
    """Per-cell quadrature-point metric data (the D_e factors of Eq. (7)),
    every array a lane block (the ``N`` cells on the trailing axis, the
    layout of the cell kernels).

    Attributes
    ----------
    jxw:       (nq, nq, nq, N)        quadrature weight x |det J|
    jinv_t:    (9|3, nq, nq, nq, N)   J^{-T}, its nine entries or, on an
               axis-aligned mesh, its diagonal (:data:`JINV_ENTRIES`),
               applied by :func:`to_physical` / :func:`to_reference`.
    laplace_d: (6|3, nq, nq, nq, N)   J^{-1} J^{-T} |det J| w — the
               symmetric 3x3 block applied between I_e and I_e^T for the
               Laplacian, as its six unique entries (:data:`SYM_SLOT`) or,
               on an axis-aligned mesh, its three diagonal ones
               (:data:`METRIC_ROWS`), one contiguous plane per entry.
    points:    (3, nq, nq, nq, N)     physical quadrature points
    det_j:     (nq, nq, nq, N)        Jacobian determinant (sign retained)
    """

    jxw: np.ndarray
    jinv_t: np.ndarray
    laplace_d: np.ndarray
    points: np.ndarray
    det_j: np.ndarray


@dataclass
class FaceMetrics:
    """Geometric data of one face batch (minus integration frame).

    normal:  (F, 3, qa, qb)  outward unit normal of the minus cell
    jxw:     (F, qa, qb)     surface element x quadrature weight
    jinv_t:  (F, 3, 3, qa, qb)  J^{-T} of the cell, boundary batches only
             (None on interior batches, where nothing reads it)
    c_m/c_p: (3, F, qa*qb)  ``J^{-1} n`` of the minus / plus cell as
             minus-frame ``(n, a, b)`` components (:func:`_jinv_n`; c_p
             None on boundary batches): the normal derivative of a trace
             is ``c[0] d_n + c[1] d_a + c[2] d_b``, so the SIP flux reads
             3 + 3 + 1 values per interior face point, 1 + 1 + 1 from a (1, ...) ``FaceData.b``.
    penalty: (F,)            SIP penalty scale max(A_f/V_m, A_f/V_p)
    points:  (F, 3, qa, qb)  physical quadrature points
    """

    normal: np.ndarray
    jxw: np.ndarray
    jinv_t: np.ndarray | None
    c_m: np.ndarray
    c_p: np.ndarray | None
    penalty: np.ndarray
    points: np.ndarray


class _BatchMetrics(list):
    """``[interior, boundary]`` metrics of one connectivity's batches (a
    list subclass, so :class:`GeometryField` can cache it weakly)."""


class GeometryField:
    """Nodal polynomial geometry of all leaves + metric factories."""

    def __init__(self, forest: Forest, degree: int, n_q_points: int | None = None):
        self.forest = forest
        self.degree = degree
        self.kernel = TensorProductKernel(degree, n_q_points or degree + 1)
        n = degree + 1
        nodes = self.kernel.shape.basis.nodes
        # reference lattice with x fastest, matching (z, y, x) array layout
        zz, yy, xx = np.meshgrid(nodes, nodes, nodes, indexing="ij")
        ref = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        X = forest.leaf_points(ref).transpose(0, 2, 1)  # (N, 3, n^3)
        self.X = np.ascontiguousarray(X).reshape(forest.n_cells, 3, n, n, n)
        # scale reference derivatives: X is sampled on the *leaf* lattice,
        # so kernel gradients are already w.r.t. leaf reference coords.
        self._cell_metrics: CellMetrics | None = None
        self._face_metrics = weakref.WeakValueDictionary()
        #: face loops over this geometry's metrics, per connectivity
        #: (:func:`repro.core.operators.base.value_faces`)
        self.face_loops: dict = {}

    @property
    def n_cells(self) -> int:
        return self.forest.n_cells

    # ------------------------------------------------------------------
    def cell_metrics(self) -> CellMetrics:
        """Compute (and cache) all cell quadrature metric data."""
        if self._cell_metrics is not None:
            return self._cell_metrics
        kern = self.kernel
        # grads[j, i] = dX_i/dref_j: the X component axis rides along as
        # a batch axis behind the component-major reference axis
        vals, grads = kern.values_and_gradients(np.moveaxis(self.X, 0, -1).copy())
        det, Jinv = _invert_3x3(np.swapaxes(grads, 0, 1))
        if np.any(det <= 0):
            bad = int(np.sum(np.any(det.reshape(-1, self.n_cells) <= 0, axis=0)))
            raise ValueError(f"{bad} cells have non-positive Jacobian")
        jxw = np.abs(det) * kern.quadrature_weights[..., None]
        laplace_d = np.empty((6,) + jxw.shape)
        for a in range(3):
            for b in range(a, 3):
                np.einsum("j...,j...->...", Jinv[a], Jinv[b], out=laplace_d[SYM_SLOT[a][b]])
        laplace_d *= jxw
        laplace_d = sparsest(laplace_d, [0, 3, 5], [1, 2, 4])
        jinv_t = np.swapaxes(Jinv, 0, 1).reshape((9,) + jxw.shape)
        jinv_t = sparsest(jinv_t, [0, 4, 8], [1, 2, 3, 5, 6, 7])
        self._cell_metrics = CellMetrics(jxw=jxw, jinv_t=jinv_t, laplace_d=laplace_d,
                                         points=vals, det_j=det)
        return self._cell_metrics

    # ------------------------------------------------------------------
    def _nodal_jacobian(self, cells: np.ndarray) -> np.ndarray:
        """J at the nodal lattice of the given cells: (F, 3, 3, n, n, n)."""
        g = self.kernel.nodal_gradients(np.moveaxis(self.X[cells], 0, -1).copy())
        return np.moveaxis(g, (0, -1), (2, 0))

    def _side_face_data(
        self,
        cells: np.ndarray,
        face: int,
        orientation=None,
        subface=None,
    ):
        """Nodal face traces of X and J for one side, oriented into the
        minus frame and interpolated to the minus quadrature points.

        Returns (points (F,3,qa,qb), J (F,3,3,qa,qb)).
        """
        kern = self.kernel
        Xc = self.X[cells]  # (F, 3, n, n, n)
        Jc = self._nodal_jacobian(cells)  # (F, 3, 3, n, n, n)
        tX = kern.face_nodal_trace(Xc, face)  # (F, 3, n, n)
        tJ = kern.face_nodal_trace(Jc, face)  # (F, 3, 3, n, n)
        if orientation is not None and not orientation.is_identity:
            # the stored orientation maps minus coords to plus coords, which
            # is exactly what re-indexing a plus array into minus layout needs
            tX = orient_face_array(tX, orientation)
            tJ = orient_face_array(tJ, orientation)
        qX = kern.face_nodal_to_quad(tX, subface)
        qJ = kern.face_nodal_to_quad(tJ, subface)
        return qX, qJ

    def face_metrics(self, batch: FaceBatch) -> FaceMetrics:
        """Metric data of an interior face batch (minus integration frame)."""
        return self._batch_metrics(
            batch.cells_m, batch.face_m,
            (batch.cells_p, batch.face_p, batch.orientation, batch.subface),
        )

    def boundary_metrics(self, batch: BoundaryBatch) -> FaceMetrics:
        """Metric data of a boundary batch (treated as minus side only)."""
        return self._batch_metrics(batch.cells, batch.face)

    def _batch_metrics(self, cells_m, face_m, plus=None) -> FaceMetrics:
        """Metrics of the faces ``face_m`` of ``cells_m``; ``plus`` is the
        neighbor side ``(cells_p, face_p, orientation, subface)``."""
        kern = self.kernel
        d_m, s_m = divmod(face_m, 2)
        qX, qJ_m = self._side_face_data(cells_m, face_m)
        F = len(cells_m)
        nq = kern.n_q_points
        Jinv_m = _face_inverse(qJ_m)
        jinv_t_m = np.swapaxes(Jinv_m, 1, 2).reshape(F, 3, 3, nq, nq)

        # surface element: cross product of the two tangent columns of J,
        # tangential dims in (a, b) face-frame order (higher dim first)
        rem = [dd for dd in (2, 1, 0) if dd != d_m]
        t_a = qJ_m[:, :, rem[0]]  # (F, 3, qa, qb)
        t_b = qJ_m[:, :, rem[1]]
        sv = np.cross(t_a, t_b, axis=1)
        area = np.linalg.norm(sv, axis=1)
        normal = sv / area[:, None]
        # orient outward: the outward direction is J^{-T} applied to the
        # outward reference normal +-e_d
        ref_n = np.zeros(3)
        ref_n[d_m] = 1.0 if s_m == 1 else -1.0
        sign = np.sign(
            np.einsum("fi...,fi...->f...", normal, np.einsum("fij...,j->fi...", jinv_t_m, ref_n))
        )
        normal = normal * sign[:, None]

        # The minus side is always a full face of the (fine) minus cell, so
        # the surface element computed from its Jacobian needs no subface
        # area factor.
        w1 = kern.shape.quadrature.weights
        jxw = area * (w1[:, None] * w1[None, :])[None]

        # SIP penalty scale: area / volume of each adjacent cell
        vols = cell_sums(self.cell_metrics().jxw)
        areas = jxw.reshape(F, -1).sum(axis=1)
        pen = areas / vols[cells_m]
        c_p = None
        if plus is not None:
            cells_p, face_p, orientation, subface = plus
            _, qJ_p = self._side_face_data(cells_p, face_p, orientation, subface)
            Jinv_p = _face_inverse(qJ_p)
            c_p = _jinv_n(Jinv_p, normal, face_p, orientation)
            area_plus = areas if subface is None else 4.0 * areas
            pen = np.maximum(pen, area_plus / vols[cells_p])
        return FaceMetrics(
            normal=normal, jxw=jxw, jinv_t=jinv_t_m if plus is None else None,
            c_m=_jinv_n(Jinv_m, normal, face_m), c_p=c_p, penalty=pen, points=qX,
        )

    def all_face_metrics(self, conn: MeshConnectivity):
        """``[interior, boundary]`` metrics of every batch, computed once
        per connectivity while a caller holds the returned pair (the
        operators keep only what they derive from it)."""
        hit = self._face_metrics.get(id(conn))
        if hit is None or hit.conn is not conn:
            hit = _BatchMetrics([[self.face_metrics(b) for b in conn.interior],
                                 [self.boundary_metrics(b) for b in conn.boundary]])
            hit.conn = conn
            self._face_metrics[id(conn)] = hit
        return hit
