"""Leaf-face connectivity of a forest: conforming pairs, 2:1 hanging
faces, orientations, and boundary faces.

Faces are matched *geometrically*: the four corner points of every leaf
face (trilinear coarse-cell geometry, which is evaluated identically from
both sides of a shared face up to rounding) are quantized and hashed.
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

from .hexmesh import face_corner_vertices
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
def _quantize(points: np.ndarray, tol: float) -> list[tuple[int, int, int]]:
    q = np.round(points / tol).astype(np.int64)
    return [tuple(int(v) for v in row) for row in q]


def _face_corner_points(forest: Forest, index: int, face: int) -> np.ndarray:
    """(2, 2, 3) physical trilinear corners of a leaf face in (a, b) frame."""
    corners8 = forest.cell_corner_points(index)  # (8, 3) lexicographic
    return corners8[face_corner_vertices(face)]


def _match_tol(forest: Forest) -> float:
    v = forest.coarse.vertices
    if len(v) == 0:
        return 1e-9
    extent = float(np.max(v.max(axis=0) - v.min(axis=0)))
    return max(extent, 1.0e-12) * 1e-9


def _ancestor_face_on_boundary(cell: CellId, face: int, la: int) -> CellId | None:
    """The ancestor of ``cell`` at level ``la`` if ``face`` of the cell
    lies on that ancestor's boundary in the same direction, else None."""
    d, s = divmod(face, 2)
    shift = cell.level - la
    coord = (cell.i, cell.j, cell.k)[d]
    within = coord - ((coord >> shift) << shift)
    if s == 0 and within != 0:
        return None
    if s == 1 and within != (1 << shift) - 1:
        return None
    return CellId(cell.tree, la, cell.i >> shift, cell.j >> shift, cell.k >> shift)


def _orientation_from_corners(km: list, kp: list) -> Orientation:
    """Derive the dihedral map from minus corner keys to plus corner keys.

    ``km``, ``kp`` are 2x2 nested lists of hashable corner keys in the
    two frames; returns T with kp[T(a,b)] == km[a][b].
    """
    pos_p = {kp[a][b]: (a, b) for a in range(2) for b in range(2)}
    try:
        img00 = pos_p[km[0][0]]
        img10 = pos_p[km[1][0]]
    except KeyError as exc:  # pragma: no cover - matching guaranteed by caller
        raise ValueError("faces do not share corners") from exc
    # Moving along a in the minus frame moves along b' in the plus frame?
    swap = img10[0] == img00[0]
    flip_a = bool(img00[0])
    flip_b = bool(img00[1])
    o = Orientation(swap, flip_a, flip_b)
    # verify on all four corners (catches degenerate geometry)
    for a in range(2):
        for b in range(2):
            ap, bp = o.apply_coords(float(a), float(b))
            if kp[int(round(ap))][int(round(bp))] != km[a][b]:
                raise ValueError("inconsistent face corner correspondence")
    return o


def _corner_keys_2x2(points: np.ndarray, tol: float) -> list:
    flat = _quantize(points.reshape(4, 3), tol)
    return [[flat[0], flat[1]], [flat[2], flat[3]]]


def _ancestor_face_corner_points(
    forest: Forest, cell: CellId, face: int, ancestor: CellId
) -> np.ndarray:
    """(2,2,3) physical corners of the ancestor's face (same direction)."""
    ref = ancestor.ref_corners()[face_corner_vertices(face)]
    return forest.coarse.map_trilinear(cell.tree, ref.reshape(4, 3)).reshape(2, 2, 3)


def _build_face_index(forest: Forest, tol: float):
    """Hash every leaf face by its quantized corner set."""
    face_map: dict[frozenset, list[tuple[int, int]]] = {}
    corner_cache: dict[tuple[int, int], list] = {}
    for c in range(forest.n_cells):
        corners8 = forest.cell_corner_points(c)
        keys8 = _quantize(corners8, tol)
        for f in range(6):
            idx = face_corner_vertices(f)
            k2x2 = [[keys8[idx[a][b]] for b in range(2)] for a in range(2)]
            corner_cache[(c, f)] = k2x2
            key = frozenset(k2x2[0] + k2x2[1])
            face_map.setdefault(key, []).append((c, f))
    return face_map, corner_cache


def find_unbalanced_cells(forest: Forest) -> list[CellId]:
    """Cells violating the 2:1 face balance: returns the *coarse* cells
    that must be refined."""
    tol = _match_tol(forest)
    face_map, _ = _build_face_index(forest, tol)
    unmatched: dict[frozenset, tuple[int, int]] = {
        key: entries[0] for key, entries in face_map.items() if len(entries) == 1
    }
    violators: set[CellId] = set()
    for key, (c, f) in unmatched.items():
        cell = forest.leaves[c]
        for la in range(cell.level - 1, -1, -1):
            anc = _ancestor_face_on_boundary(cell, f, la)
            if anc is None:
                break
            pts = _ancestor_face_corner_points(forest, cell, f, anc)
            anc_key = frozenset(_quantize(pts.reshape(4, 3), tol))
            hit = unmatched.get(anc_key)
            if hit is not None and hit != (c, f):
                cc, _ = hit
                if forest.leaves[cc].level == la and cell.level - la >= 2:
                    violators.add(forest.leaves[cc])
                break
    return sorted(violators)


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
    tol = _match_tol(forest)
    face_map, corner_cache = _build_face_index(forest, tol)

    interior: dict[tuple, FaceBatch] = {}
    boundary: dict[tuple, BoundaryBatch] = {}
    matched: set[tuple[int, int]] = set()

    def add_interior(cm, fm, cp, fp, orientation, subface):
        key = (fm, fp, orientation.code, subface)
        batch = interior.get(key)
        if batch is None:
            batch = FaceBatch(fm, fp, orientation, subface, [], [])  # type: ignore[arg-type]
            interior[key] = batch
        batch.cells_m.append(cm)  # type: ignore[union-attr]
        batch.cells_p.append(cp)  # type: ignore[union-attr]

    # conforming pairs -----------------------------------------------------
    for key, entries in face_map.items():
        if len(entries) == 2:
            (cm, fm), (cp, fp) = entries
            lm = forest.leaves[cm].level
            lp = forest.leaves[cp].level
            if lm != lp:  # pragma: no cover - same corners forces same level
                raise RuntimeError("matched faces at different levels")
            o = _orientation_from_corners(corner_cache[(cm, fm)], corner_cache[(cp, fp)])
            add_interior(cm, fm, cp, fp, o, None)
            matched.add((cm, fm))
            matched.add((cp, fp))
        elif len(entries) > 2:  # pragma: no cover - defensive
            raise RuntimeError(f"face shared by {len(entries)} cells")

    # hanging (2:1) pairs ----------------------------------------------------
    unmatched = {
        key: entries[0]
        for key, entries in face_map.items()
        if len(entries) == 1 and entries[0] not in matched
    }
    for key, (c, f) in list(unmatched.items()):
        if (c, f) in matched:
            continue
        cell = forest.leaves[c]
        if cell.level == 0:
            continue
        # probe every ancestor level so 4:1 (unbalanced) situations are
        # detected and reported instead of silently misclassified
        hit = None
        anc_keys_2x2 = None
        la_hit = None
        for la in range(cell.level - 1, -1, -1):
            anc = _ancestor_face_on_boundary(cell, f, la)
            if anc is None:
                break
            pts = _ancestor_face_corner_points(forest, cell, f, anc)
            keys = _corner_keys_2x2(pts.reshape(4, 3), tol)
            cand = unmatched.get(frozenset(keys[0] + keys[1]))
            if cand is not None and cand != (c, f):
                hit, anc_keys_2x2, la_hit = cand, keys, la
                break
        if hit is None:
            continue
        cp, fp = hit
        if forest.leaves[cp].level != la_hit or cell.level - la_hit >= 2:
            raise RuntimeError("mesh is not 2:1 balanced; call Forest.balance()")
        # orientation: ancestor/fine frame (minus) -> coarse neighbor (plus)
        o = _orientation_from_corners(anc_keys_2x2, corner_cache[(cp, fp)])
        # subface position of the fine cell inside the ancestor face, in
        # the minus (fine) frame
        d, s = divmod(f, 2)
        rem = [dd for dd in (2, 1, 0) if dd != d]  # (high, low)
        anchor = (cell.i, cell.j, cell.k)
        sa = anchor[rem[0]] & 1
        sb = anchor[rem[1]] & 1
        add_interior(c, f, cp, fp, o, (sa, sb))
        matched.add((c, f))
        matched.add((cp, fp))

    # boundary faces -----------------------------------------------------------
    for key, (c, f) in unmatched.items():
        if (c, f) in matched:
            continue
        cell = forest.leaves[c]
        anc = _ancestor_face_on_boundary(cell, f, 0)
        if anc is None:
            raise RuntimeError(
                f"face {f} of {cell} is neither matched nor on the domain boundary"
            )
        root_face_vertices = forest.coarse.face_vertices(cell.tree, f).ravel()
        bid = forest.coarse.boundary_id_of(root_face_vertices)
        bkey = (f, bid)
        batch = boundary.get(bkey)
        if batch is None:
            batch = BoundaryBatch(f, bid, [])  # type: ignore[arg-type]
            boundary[bkey] = batch
        batch.cells.append(c)  # type: ignore[union-attr]

    # periodic pairing: translated geometric matching of boundary faces ---
    if periodic:
        # collect remaining boundary faces per indicator with their keys
        remaining: dict[int, list[tuple[int, int]]] = {}
        for key, (c, f) in unmatched.items():
            if (c, f) in matched:
                continue
            cell = forest.leaves[c]
            anc = _ancestor_face_on_boundary(cell, f, 0)
            if anc is None:
                continue
            bid = forest.coarse.boundary_id_of(
                forest.coarse.face_vertices(cell.tree, f).ravel()
            )
            remaining.setdefault(bid, []).append((c, f))
        for id_a, id_b, translation in periodic:
            t = np.asarray(translation, dtype=float)
            targets: dict[frozenset, tuple[int, int, list]] = {}
            for (c, f) in remaining.get(id_b, []):
                pts = _face_corner_points(forest, c, f)
                k2x2 = _corner_keys_2x2(pts.reshape(4, 3), tol)
                targets[frozenset(k2x2[0] + k2x2[1])] = (c, f, k2x2)
            for (c, f) in remaining.get(id_a, []):
                pts = _face_corner_points(forest, c, f) + t
                k2x2_m = _corner_keys_2x2(pts.reshape(4, 3), tol)
                hit = targets.get(frozenset(k2x2_m[0] + k2x2_m[1]))
                if hit is None:
                    raise RuntimeError(
                        f"periodic face of boundary {id_a} has no partner on "
                        f"{id_b} under translation {translation} (is the mesh "
                        "uniformly refined across the periodic boundary?)"
                    )
                cp, fp, k2x2_p = hit
                if forest.leaves[c].level != forest.leaves[cp].level:
                    raise RuntimeError(
                        "periodic faces must pair at equal refinement levels"
                    )
                o = _orientation_from_corners(k2x2_m, k2x2_p)
                add_interior(c, f, cp, fp, o, None)
                matched.add((c, f))
                matched.add((cp, fp))
        # drop the now-matched faces from the boundary batches
        for bkey in list(boundary):
            batch = boundary[bkey]
            kept = [cc for cc in batch.cells if (cc, batch.face) not in matched]  # type: ignore[union-attr]
            if kept:
                batch.cells = kept  # type: ignore[assignment]
            else:
                del boundary[bkey]

    ibatches = []
    for batch in interior.values():
        batch.cells_m = np.asarray(batch.cells_m, dtype=np.int64)
        batch.cells_p = np.asarray(batch.cells_p, dtype=np.int64)
        ibatches.append(batch)
    bbatches = []
    for batch in boundary.values():
        batch.cells = np.asarray(batch.cells, dtype=np.int64)
        bbatches.append(batch)
    ibatches.sort(key=lambda b: (b.face_m, b.face_p, b.orientation.code, b.subface or (-1, -1)))
    bbatches.sort(key=lambda b: (b.face, b.boundary_id))
    return MeshConnectivity(ibatches, bbatches)
