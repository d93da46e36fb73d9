"""Minimal legacy-VTK writer for hex meshes and cell data — lets the
lung meshes and flow fields be inspected in ParaView (the kind of
visualization behind Figures 1, 3, 4)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .octree import Forest

#: lexicographic (deal.II) local vertex order -> VTK_HEXAHEDRON order
_VTK_ORDER = [0, 1, 3, 2, 4, 5, 7, 6]


def write_vtk(path, forest: Forest, cell_data: dict | None = None) -> Path:
    """Write the leaf cells of a forest as a legacy VTK unstructured grid.

    ``cell_data`` maps field names to per-leaf-cell scalar arrays.
    """
    path = Path(path)
    n_cells = forest.n_cells
    points = forest.corner_points.reshape(-1, 3)
    lines = [
        "# vtk DataFile Version 3.0",
        "repro hex mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    lines += [" ".join(f"{x:.10g}" for x in p) for p in points]
    lines.append(f"CELLS {n_cells} {n_cells * 9}")
    for c in range(n_cells):
        base = 8 * c
        ids = " ".join(str(base + v) for v in _VTK_ORDER)
        lines.append(f"8 {ids}")
    lines.append(f"CELL_TYPES {n_cells}")
    lines += ["12"] * n_cells  # VTK_HEXAHEDRON
    if cell_data:
        lines.append(f"CELL_DATA {n_cells}")
        for name, values in cell_data.items():
            values = np.asarray(values, dtype=float)
            if values.shape != (n_cells,):
                raise ValueError(f"cell data {name!r} must have one value per cell")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [f"{v:.10g}" for v in values]
    path.write_text("\n".join(lines) + "\n")
    return path
