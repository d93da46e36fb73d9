"""Unstructured coarse hexahedral meshes (Section 3.3).

The paper's meshes are hex-only: an unstructured *coarse* mesh whose
cells act as the root trees of a forest of octrees (p4est style), with
structured refinement inside each tree.  :class:`HexMesh` stores the
coarse topology; :mod:`repro.mesh.octree` adds the refinement forest.

Vertex ordering inside a cell is lexicographic: local vertex
``v = vx + 2 vy + 4 vz`` sits at reference-cube corner
``(vx, vy, vz) in {0, 1}^3``.  Local face ``f = 2 d + s`` is normal to
reference dimension ``d`` on the low (``s = 0``) or high (``s = 1``)
side, matching :mod:`repro.core.sum_factorization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: unit-cube corners in lexicographic order ``v = vx + 2 vy + 4 vz``
CORNER_OFFSETS = np.array([[v & 1, (v >> 1) & 1, (v >> 2) & 1] for v in range(8)])

#: Local vertex indices of face ``f = 2 d + s`` in the face's own (a, b)
#: frame, where ``a`` runs along the *higher* remaining dimension and
#: ``b`` along the lower one (the array-axis order of face data produced
#: by the sum-factorization kernels).  Entry [f][a][b] is a local vertex.
_FACE_CORNERS: list[list[list[int]]] = []
for _d in range(3):
    for _s in range(2):
        rem = [dd for dd in (2, 1, 0) if dd != _d]  # (high, low)
        table = [[0, 0], [0, 0]]
        for _a in range(2):
            for _b in range(2):
                coords = [0, 0, 0]
                coords[_d] = _s
                coords[rem[0]] = _a
                coords[rem[1]] = _b
                table[_a][_b] = coords[0] + 2 * coords[1] + 4 * coords[2]
        _FACE_CORNERS.append(table)


def face_corner_vertices(face: int) -> np.ndarray:
    """Local vertex indices of a face as a (2, 2) array in (a, b) frame."""
    return np.asarray(_FACE_CORNERS[face])


@dataclass
class HexMesh:
    """An unstructured mesh of hexahedral cells.

    Attributes
    ----------
    vertices:
        ``(n_vertices, 3)`` physical coordinates.
    cells:
        ``(n_cells, 8)`` vertex indices in lexicographic local order.
    boundary_ids:
        Maps a frozenset of 4 vertex ids (a boundary quad) to an integer
        boundary indicator used by boundary conditions.  Faces not listed
        default to indicator 0.
    geometry:
        Optional smooth geometry description: a callable
        ``geometry(tree_index, ref_points) -> physical_points`` taking
        reference coordinates in the unit cube of one coarse cell.  When
        absent, trilinear interpolation of the corner vertices is used.
        The lung meshes attach transfinite cylinder mappings here.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_ids: dict = field(default_factory=dict)
    geometry: Callable | None = None

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.cells = np.asarray(self.cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (n, 3)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 8:
            raise ValueError("cells must have shape (n, 8)")
        if self.cells.size and self.cells.max() >= len(self.vertices):
            raise ValueError("cell refers to non-existent vertex")

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    # ------------------------------------------------------------------
    def cell_corners(self, c: int) -> np.ndarray:
        """(8, 3) corner coordinates of cell ``c`` in lexicographic order."""
        return self.vertices[self.cells[c]]

    def map_trilinear(self, c: int, ref: np.ndarray) -> np.ndarray:
        """Trilinear map of reference points ``(m, 3)`` in cell ``c``."""
        return trilinear(self.cell_corners(c), ref)

    def map_geometry(self, c: int, ref: np.ndarray) -> np.ndarray:
        """Smooth geometry map (falls back to trilinear)."""
        if self.geometry is None:
            return self.map_trilinear(c, ref)
        return self.geometry(c, ref)

    def face_vertices(self, c: int, face: int) -> np.ndarray:
        """(2, 2) global vertex ids of a local face in (a, b) frame."""
        return self.cells[c][face_corner_vertices(face)]

    def boundary_id_of(self, vertex_ids) -> int:
        return self.boundary_ids.get(frozenset(int(v) for v in vertex_ids), 0)

    def cell_volume_estimate(self, c: int) -> float:
        """Volume of the trilinear cell by 2-point Gauss quadrature."""
        from ..core.quadrature import gauss, tensor_points, tensor_weights

        rule = gauss(2)
        pts = tensor_points(rule, 3)
        w = tensor_weights(rule, 3)
        J = trilinear_jacobian(self.cell_corners(c), pts)
        return float(np.dot(w, np.abs(np.linalg.det(J))))


def _corner_weights(fx: np.ndarray, fy: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """``(fx[vx] * fy[vy]) * fz[vz]`` at lexicographic corner
    ``v = vx + 2 vy + 4 vz``; factors ``(..., 2)`` broadcast to ``(..., 8)``."""
    w = fz[..., :, None, None] * (fy[..., :, None] * fx[..., None, :])[..., None, :, :]
    return w.reshape(w.shape[:-3] + (8,))


def trilinear(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of 8 corners (lexicographic) at ``ref``.

    ``corners``: (8, 3) or batched (..., 8, 3); ``ref``: (m, 3) in
    [0,1]^3, or (..., m, 3) with one point set per corner set.
    Returns (..., m, 3).
    """
    ref = np.atleast_2d(ref)
    hat = np.stack([1.0 - ref, ref], axis=-1)  # (..., m, 3, 2): 1-D hat pairs
    w = _corner_weights(hat[..., 0, :], hat[..., 1, :], hat[..., 2, :])
    return np.einsum("...mv,...vd->...md", w, np.asarray(corners))


def trilinear_jacobian(corners: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Jacobian dX/dref of the trilinear map, shape (..., m, 3, 3) for
    corners (..., 8, 3); ``J[m, i, j] = dX_i / dref_j``."""
    ref = np.atleast_2d(ref)
    hat = np.stack([1.0 - ref, ref], axis=-1)
    slope = np.array([-1.0, 1.0])
    dw = np.stack(
        [
            _corner_weights(*(slope if i == j else hat[..., i, :] for i in range(3)))
            for j in range(3)
        ],
        axis=-1,
    )  # (m, 8, 3): d w_v / d ref_j
    return np.einsum("mvj,...vi->...mij", dw, np.asarray(corners))


def merge_meshes(meshes: list[HexMesh], tol: float = 1e-9) -> HexMesh:
    """Merge several hex meshes, unifying vertices that coincide within
    ``tol`` — the operation that joins the independent airway-cylinder
    meshes at the bifurcation transition sections (Figure 4 (b))."""
    all_vertices = np.concatenate([m.vertices for m in meshes], axis=0)
    key = np.round(all_vertices / tol).astype(np.int64)
    _, unique_idx, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    new_vertices = all_vertices[unique_idx]
    cells = []
    offset = 0
    boundary_ids: dict = {}
    for m in meshes:
        cells.append(inverse[m.cells + offset])
        for quad, bid in m.boundary_ids.items():
            new_quad = frozenset(int(inverse[v + offset]) for v in quad)
            boundary_ids[new_quad] = bid
        offset += m.n_vertices
    return HexMesh(new_vertices, np.concatenate(cells, axis=0), boundary_ids)
