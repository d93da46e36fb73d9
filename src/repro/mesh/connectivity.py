"""Leaf-face connectivity of a forest: conforming pairs, 2:1 hanging
faces, orientations, and boundary faces.

Faces are matched *geometrically*: the four corner points of every leaf
face (trilinear coarse-cell geometry, which is evaluated identically from
both sides of a shared face up to rounding) are quantized and numbered,
and faces with the same four corner numbers are the same face.
This handles arbitrary relative orientations of coarse cells — the case
the paper highlights as costing ~25% extra face work on the lung mesh due
to partially filled SIMD lanes — without p4est's transform tables.

Face frames.  Face ``f = 2 d + s`` of a cell has local coordinates
``(a, b)`` running along the two tangential reference dimensions in
*descending* order (normal x keeps (z, y), normal y keeps (z, x), normal
z keeps (y, x)); this matches the array layout of
:meth:`repro.core.sum_factorization.TensorProductKernel.face_nodal_trace`.

An :class:`Orientation` maps the *minus* side's face coordinates to the
*plus* side's: ``(a', b') = T(a, b)`` — one of the 8 symmetries of the
square, encoded by ``(swap, flip_a, flip_b)`` as

    (t, u) = (b, a) if swap else (a, b);  a' = t ^ flip_a;  b' = u ^ flip_b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hexmesh import CORNER_OFFSETS, face_corner_vertices, trilinear
from .octree import CellId, Forest


@dataclass(frozen=True)
class Orientation:
    swap: bool = False
    flip_a: bool = False
    flip_b: bool = False

    @property
    def code(self) -> int:
        return 4 * self.swap + 2 * self.flip_a + self.flip_b

    def apply_coords(self, a, b):
        """Map minus-frame coordinates in [0, 1]^2 to plus-frame."""
        t, u = (b, a) if self.swap else (a, b)
        ap = 1.0 - t if self.flip_a else t
        bp = 1.0 - u if self.flip_b else u
        return ap, bp

    def inverse(self) -> "Orientation":
        if not self.swap:
            return self
        return Orientation(True, self.flip_b, self.flip_a)

    @property
    def is_identity(self) -> bool:
        return not (self.swap or self.flip_a or self.flip_b)


IDENTITY = Orientation()


def orient_face_array(arr: np.ndarray, o: Orientation) -> np.ndarray:
    """Re-express plus-side face data in the minus-side frame.

    ``arr`` has the plus side's face layout on its last two axes; the
    result ``out`` satisfies ``out[.., ia, ib] = value at the minus-frame
    lattice point (ia, ib)``, assuming a reversal-symmetric point set
    (Gauss or Gauss–Lobatto) so coordinate flips become index reversals.
    """
    if o.swap:
        arr = np.swapaxes(arr, -1, -2)
        fa, fb = o.flip_b, o.flip_a
    else:
        fa, fb = o.flip_a, o.flip_b
    if fa:
        arr = arr[..., ::-1, :]
    if fb:
        arr = arr[..., ::-1]
    return arr


def orient_to_plus(arr: np.ndarray, o: Orientation) -> np.ndarray:
    """Transform minus-frame face data into the plus-side frame (the
    inverse of :func:`orient_face_array`), used when scattering
    integrated face contributions back to the neighbor cell."""
    return orient_face_array(arr, o.inverse())


# ---------------------------------------------------------------------------
@dataclass
class FaceBatch:
    """A batch of interior faces sharing local face numbers, orientation,
    and (for hanging faces) the subface position — the unit of vectorized
    face-loop work (one batch maps to full SIMD lanes in the paper).

    ``cells_m`` is the *integration* side: for conforming faces an
    arbitrary choice; for 2:1 faces always the **fine** cell, so the
    coarse neighbor's data is sub-face interpolated (Section 3.4).
    ``subface = None`` marks conforming batches; otherwise ``(sa, sb)``
    locates the fine face inside the coarse face *in the minus frame*.
    """

    face_m: int
    face_p: int
    orientation: Orientation
    subface: tuple[int, int] | None
    cells_m: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    cells_p: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def n_faces(self) -> int:
        return len(self.cells_m)

    @property
    def is_hanging(self) -> bool:
        return self.subface is not None


@dataclass
class BoundaryBatch:
    """Boundary faces sharing a local face number and boundary id."""

    face: int
    boundary_id: int
    cells: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def n_faces(self) -> int:
        return len(self.cells)


@dataclass
class MeshConnectivity:
    interior: list[FaceBatch]
    boundary: list[BoundaryBatch]

    @property
    def n_interior_faces(self) -> int:
        return sum(b.n_faces for b in self.interior)

    @property
    def n_boundary_faces(self) -> int:
        return sum(b.n_faces for b in self.boundary)

    @property
    def n_hanging_faces(self) -> int:
        return sum(b.n_faces for b in self.interior if b.is_hanging)

    def mixed_orientation_fraction(self) -> float:
        """Fraction of interior faces with non-identity orientation — the
        quantity behind the partially-filled-SIMD-lane overhead reported
        in Section 5.2."""
        total = self.n_interior_faces
        if total == 0:
            return 0.0
        mixed = sum(
            b.n_faces
            for b in self.interior
            if not b.orientation.is_identity or b.is_hanging
        )
        return mixed / total


# ---------------------------------------------------------------------------
#: lexicographic cell corner of each face corner, (a, b) frame order 2a + b
_FACE_VERTS = np.array([face_corner_vertices(f).ravel() for f in range(6)])
#: tangential dimensions (high, low) of the faces normal to dimension d
_TANGENTIAL = np.array([[2, 1], [2, 0], [1, 0]])


@dataclass(frozen=True)
class FaceIndex:
    """Geometric matching of all leaf faces of one forest.  A face is
    named by its flat index ``6 c + f``.

    tol:         quantization step of the corner positions
    vertices:    (V, 3) the distinct quantized leaf-corner positions
    corner_ids:  (6 N, 4) row of ``vertices`` under every face corner
    pairs:       (P, 2) faces sharing all four corners, ordered by the
                 first member (the smaller flat index)
    unmatched:   (U,) faces seen from one side only, ascending
    hanging:     (H, 3) rows ``(face, coarse face, ancestor level)``: for
                 an unmatched face, the finest ancestor level whose face
                 in the same direction is another unmatched leaf face
    hanging_ids: (H, 4) corner ids of that ancestor face, in the frame
                 of the (fine) face
    """

    tol: float
    vertices: np.ndarray
    corner_ids: np.ndarray
    pairs: np.ndarray
    unmatched: np.ndarray
    hanging: np.ndarray
    hanging_ids: np.ndarray


def _match_tol(forest: Forest) -> float:
    v = forest.coarse.vertices
    if len(v) == 0:
        return 1e-9
    extent = float(np.max(v.max(axis=0) - v.min(axis=0)))
    return max(extent, 1.0e-12) * 1e-9


def _lookup_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position in ``table`` (distinct integer rows) of every row of
    ``rows``; -1 where absent."""
    _, inverse = np.unique(np.concatenate([table, rows]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    position = np.full(len(table) + len(rows), -1)
    position[inverse[: len(table)]] = np.arange(len(table))
    return position[inverse[len(table):]]


def _vertex_ids(vertices: np.ndarray, points: np.ndarray, tol: float) -> np.ndarray:
    """Ids ``(n, 4)`` of the face corners ``points`` (n, 4, 3) among the
    quantized leaf-corner positions ``vertices``; -1 where no leaf
    corner sits."""
    q = np.round(points / tol).astype(np.int64).reshape(-1, 3)
    return _lookup_rows(vertices, q).reshape(-1, 4)


def _find_faces(face_ids: np.ndarray, probe_ids: np.ndarray) -> np.ndarray:
    """Position among the faces with corner ids ``face_ids`` (F, 4) of
    the face with the same corner *set* as each ``probe_ids`` row."""
    return _lookup_rows(np.sort(face_ids, axis=1), np.sort(probe_ids, axis=1))


def _orientation_codes(km: np.ndarray, kp: np.ndarray) -> np.ndarray:
    """:attr:`Orientation.code` of the dihedral maps T taking minus
    corner ids ``km`` (n, 4) to plus corner ids ``kp``:
    ``kp[T(a, b)] == km[a, b]`` with corners in frame order ``2 a + b``."""
    img00 = (kp == km[:, :1]).argmax(axis=1)
    img10 = (kp == km[:, 2:3]).argmax(axis=1)
    # moving along a in the minus frame moves along b' in the plus frame?
    swap = (img10 >> 1) == (img00 >> 1)
    flip_a, flip_b = img00 >> 1, img00 & 1
    # verify on all four corners (catches degenerate geometry)
    a, b = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    t = np.where(swap[:, None], b, a) ^ flip_a[:, None]
    u = np.where(swap[:, None], a, b) ^ flip_b[:, None]
    if not np.array_equal(np.take_along_axis(kp, 2 * t + u, axis=1), km):
        raise ValueError("inconsistent face corner correspondence")
    return 4 * swap + 2 * flip_a + flip_b


def build_face_index(forest: Forest) -> FaceIndex:
    """Match every leaf face by its quantized corner set and probe the
    ancestors of the unmatched ones for a coarser neighbour.  Reached
    through :attr:`Forest.face_index`, which keeps the result."""
    tol = _match_tol(forest)
    tree, level, anchors = forest.leaf_arrays()
    q = np.round(forest.corner_points / tol).astype(np.int64).reshape(-1, 3)
    vertices, vid = np.unique(q, axis=0, return_inverse=True)
    corner_ids = vid.reshape(-1, 8)[:, _FACE_VERTS].reshape(-1, 4)
    _, group, counts = np.unique(
        np.sort(corner_ids, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    if counts.size and counts.max() > 2:  # pragma: no cover - defensive
        raise RuntimeError(f"face shared by {counts.max()} cells")
    by_group = np.argsort(group.ravel(), kind="stable")  # ascending inside a group
    starts = np.cumsum(counts) - counts
    twice = starts[counts == 2]
    pairs = np.stack([by_group[twice], by_group[twice + 1]], axis=1)
    pairs = pairs[np.argsort(pairs[:, 0])]
    unmatched = np.sort(by_group[starts[counts == 1]])

    # every (unmatched face, ancestor level) whose ancestor has the face
    # on its own boundary in the same direction, finest level first:
    # probing *every* level is what lets 4:1 situations be detected
    c, f = np.divmod(unmatched, 6)
    d, s = np.divmod(f, 2)
    coord = anchors[c, d]
    shifts = np.arange(1, forest.max_level + 1)[:, None]
    on_face = (level[c] >= shifts) & ((coord & ((1 << shifts) - 1)) == s * ((1 << shifts) - 1))
    shift, pos = np.nonzero(on_face)
    order = np.lexsort((shift, pos))
    shift, pos = shift[order] + 1, pos[order]
    la = level[c[pos]] - shift
    ref = (
        (anchors[c[pos]] >> shift[:, None])[:, None, :] + CORNER_OFFSETS[_FACE_VERTS[f[pos]]]
    ) * (0.5**la)[:, None, None]
    coarse = forest.coarse
    ancestor_ids = _vertex_ids(
        vertices, trilinear(coarse.vertices[coarse.cells[tree[c[pos]]]], ref), tol
    )
    hit = _find_faces(corner_ids[unmatched], ancestor_ids)
    valid = np.nonzero((hit >= 0) & (hit != pos))[0]
    valid = valid[np.unique(pos[valid], return_index=True)[1]]  # finest hit per face
    hanging = np.stack([unmatched[pos[valid]], unmatched[hit[valid]], la[valid]], axis=1)
    return FaceIndex(tol, vertices, corner_ids, pairs, unmatched, hanging, ancestor_ids[valid])


def find_unbalanced_cells(forest: Forest) -> list[CellId]:
    """Cells violating the 2:1 face balance: returns the *coarse* cells
    that must be refined."""
    level = forest.leaf_arrays()[1]
    fine, coarse_face, la = forest.face_index.hanging.T
    bad = (level[coarse_face // 6] == la) & (level[fine // 6] - la >= 2)
    return sorted({forest.leaves[c] for c in (coarse_face[bad] // 6).tolist()})


def _interior_rows(minus, plus, codes, subface=None) -> np.ndarray:
    """``(face_m, face_p, code, sa, sb, cell_m, cell_p)`` per face pair;
    conforming pairs carry the subface ``(-1, -1)``."""
    if subface is None:
        subface = np.full((len(minus), 2), -1)
    return np.column_stack([minus % 6, plus % 6, codes, subface, minus // 6, plus // 6])


def _groups(keys: np.ndarray):
    """The distinct rows of ``keys`` in lexicographic order, each with
    the ascending positions that hold it."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    return [(row, np.nonzero(inverse == g)[0]) for g, row in enumerate(uniq.tolist())]


def build_connectivity(
    forest: Forest,
    periodic: list[tuple[int, int, tuple[float, float, float]]] | None = None,
) -> MeshConnectivity:
    """Match all leaf faces of a (2:1 balanced) forest into vectorizable
    batches of conforming, hanging, and boundary faces.

    ``periodic`` declares translational periodicity: each entry
    ``(id_a, id_b, translation)`` pairs every boundary face with
    indicator ``id_a`` to the ``id_b`` face whose corners equal its own
    shifted by ``translation``.  Matched pairs become ordinary interior
    faces (orientation-aware), so every operator supports periodicity
    without changes; the mesh must be uniformly refined across periodic
    boundaries (no 2:1 hanging periodic faces).
    """
    index = forest.face_index
    ids = index.corner_ids
    tree, level, anchors = forest.leaf_arrays()

    # conforming pairs -----------------------------------------------------
    minus, plus = index.pairs.T
    if np.any(level[minus // 6] != level[plus // 6]):  # pragma: no cover
        raise RuntimeError("matched faces at different levels")  # same corners force same level
    rows = [_interior_rows(minus, plus, _orientation_codes(ids[minus], ids[plus]))]

    # hanging (2:1) pairs: the fine face integrates ---------------------------
    fresh = ~np.isin(index.hanging[:, 0], index.hanging[:, 1])  # not itself a coarse side
    fine, coarse_face, la = index.hanging[fresh].T
    if np.any((level[coarse_face // 6] != la) | (level[fine // 6] - la >= 2)):
        raise RuntimeError("mesh is not 2:1 balanced; call Forest.balance()")
    # orientation: ancestor/fine frame (minus) -> coarse neighbor (plus);
    # subface: position of the fine cell inside the ancestor face, minus frame
    codes = _orientation_codes(index.hanging_ids[fresh], ids[coarse_face])
    tangential = _TANGENTIAL[(fine % 6) // 2]
    subface = np.take_along_axis(anchors[fine // 6], tangential, axis=1) & 1
    rows.append(_interior_rows(fine, coarse_face, codes, subface))

    # boundary faces -----------------------------------------------------------
    faces = index.unmatched[~np.isin(index.unmatched, index.hanging[fresh, :2])]
    c, f = np.divmod(faces, 6)
    d, s = np.divmod(f, 2)
    inside = anchors[c, d] != s * ((1 << level[c]) - 1)
    if inside.any():
        k = int(np.argmax(inside))
        raise RuntimeError(
            f"face {f[k]} of {forest.leaves[c[k]]} is neither matched nor on the domain boundary"
        )
    coarse = forest.coarse
    root_faces, inverse = np.unique(6 * tree[c] + f, return_inverse=True)
    bid = np.array(
        [coarse.boundary_id_of(coarse.face_vertices(*divmod(k, 6)).ravel())
         for k in root_faces.tolist()],
        dtype=np.int64,
    )[inverse]

    # periodic pairing: translated geometric matching of boundary faces ---
    for id_a, id_b, translation in periodic or ():
        a, b = faces[bid == id_a], faces[bid == id_b]
        corners = np.take_along_axis(
            forest.corner_points[a // 6], _FACE_VERTS[a % 6][:, :, None], axis=1
        )
        shifted_ids = _vertex_ids(
            index.vertices, corners + np.asarray(translation, dtype=float), index.tol
        )
        hit = _find_faces(ids[b], shifted_ids)
        if np.any(hit < 0):
            raise RuntimeError(
                f"periodic face of boundary {id_a} has no partner on "
                f"{id_b} under translation {translation} (is the mesh "
                "uniformly refined across the periodic boundary?)"
            )
        partner = b[hit]
        if np.any(level[a // 6] != level[partner // 6]):
            raise RuntimeError("periodic faces must pair at equal refinement levels")
        rows.append(_interior_rows(a, partner, _orientation_codes(shifted_ids, ids[partner])))
        keep = ~np.isin(faces, np.concatenate([a, partner]))
        faces, bid = faces[keep], bid[keep]

    rows = np.concatenate(rows)
    interior = [
        FaceBatch(
            fm, fp, Orientation(bool(code & 4), bool(code & 2), bool(code & 1)),
            None if sa < 0 else (sa, sb), rows[at, 5], rows[at, 6],
        )
        for (fm, fp, code, sa, sb), at in _groups(rows[:, :5])
    ]
    boundary = [
        BoundaryBatch(face, boundary_id, faces[at] // 6)
        for (face, boundary_id), at in _groups(np.stack([faces % 6, bid], axis=1))
    ]
    return MeshConnectivity(interior, boundary)
