"""Hex-mesh quality metrics.

Section 3.3 designs the airway mesher around "high mesh quality with
good cross-section to length ratios" and Section 5.2 explains the lung
case's weaker multigrid convergence by "more strongly deformed elements
... difficult angles ... more anisotropy in the axial to radial element
lengths".  This module quantifies exactly those properties per cell so
mesh generators and tests can enforce them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hexmesh import CORNER_OFFSETS, trilinear_jacobian
from .octree import Forest


@dataclass
class MeshQualityReport:
    """Per-cell quality arrays plus summary accessors.

    scaled_jacobian: min over corners of det(J) normalized by the edge-
                     length product — 1 for a cube, <= 0 for inverted.
    aspect_ratio:    longest / shortest averaged edge per direction.
    skewness:        max deviation of face-direction angles from
                     orthogonality, in [0, 1) (0 = orthogonal).
    """

    scaled_jacobian: np.ndarray
    aspect_ratio: np.ndarray
    skewness: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.scaled_jacobian.size

    @property
    def worst_scaled_jacobian(self) -> float:
        return float(self.scaled_jacobian.min())

    @property
    def max_aspect_ratio(self) -> float:
        return float(self.aspect_ratio.max())

    @property
    def max_skewness(self) -> float:
        return float(self.skewness.max())

    def all_valid(self) -> bool:
        return bool(np.all(self.scaled_jacobian > 0))

    def summary(self) -> str:
        sj = self.scaled_jacobian
        return (
            f"{self.n_cells} cells | scaled Jacobian min {sj.min():.3f} "
            f"median {np.median(sj):.3f} | aspect ratio max "
            f"{self.aspect_ratio.max():.2f} | skewness max "
            f"{self.skewness.max():.3f}"
        )


def mesh_quality(forest: Forest) -> MeshQualityReport:
    """Quality metrics of every leaf cell (trilinear corner geometry)."""
    J = trilinear_jacobian(forest.corner_points, CORNER_OFFSETS)  # (N, 8, 3, 3)
    norms = np.linalg.norm(J, axis=-2)  # column norms = local edge lengths: (N, 8, 3)
    # each corner's det normalized by the local edge-length product
    scale = norms.prod(axis=-1)
    scaled = (np.linalg.det(J) / np.where(scale > 0, scale, 1.0)).min(axis=1)
    # averaged edge length per reference direction
    mean_edges = norms.mean(axis=1)
    aspect = mean_edges.max(axis=1) / np.maximum(mean_edges.min(axis=1), 1e-300)
    # skewness: worst |cos| between distinct Jacobian columns at corners
    cols = J / np.maximum(norms[:, :, None, :], 1e-300)
    cosines = [
        np.abs(np.einsum("cki,cki->ck", cols[..., a], cols[..., b]))
        for a in range(3)
        for b in range(a + 1, 3)
    ]
    skew = np.max(cosines, axis=(0, 2))
    return MeshQualityReport(scaled_jacobian=scaled, aspect_ratio=aspect, skewness=skew)
