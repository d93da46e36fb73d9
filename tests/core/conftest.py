"""Fixtures shared by the core operator tests."""

import itertools

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.hexmesh import HexMesh
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest


@pytest.fixture
def curved_hanging(rng):
    """Randomized bifurcation (curved, non-identity orientations) with
    one randomly picked cell refined (2:1 hanging faces); the k=2
    ``(geometry, connectivity, DGLaplaceOperator)``."""
    forest = Forest(bifurcation(opening_angle_deg=float(rng.uniform(40.0, 80.0))))
    pick = int(rng.integers(0, forest.n_cells))
    forest = forest.refine([forest.leaves[pick]]).balance()
    geo = GeometryField(forest, 2)
    conn = build_connectivity(forest)
    assert any(b.subface is not None for b in conn.interior)
    assert any(not b.orientation.is_identity for b in conn.interior)
    op = DGLaplaceOperator(DGDofHandler(forest, 2), geo, conn, dirichlet_ids=(1,))
    return geo, conn, op


#: the affine map of :func:`rotated_hanging_box`
SHEAR = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.25], [-0.2, 0.15, 1.0]])


def _cube_rotations():
    """The 24 proper rotations of the cube as signed permutation matrices."""
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            R = np.zeros((3, 3), int)
            R[range(3), perm] = signs
            if round(np.linalg.det(R)) == 1:
                yield R


@pytest.fixture
def rotated_hanging_box(rng):
    """The unit box in 2x2x2 cells sheared by ``SHEAR`` (so ``J^{-1} n``
    has tangential components), each cell's local frame randomly rotated
    — shared faces carry swapped and flipped orientations — with one
    cell refined (2:1 hanging faces); Dirichlet id 1 on two sides.
    ``(forest, connectivity)``."""
    mesh = box(subdivisions=(2, 2, 2), boundary_ids={0: 1, 3: 1})
    mesh.vertices = mesh.vertices @ SHEAR.T
    rotations = list(_cube_rotations())
    corners = np.array([(x, y, z) for z in (-1, 1) for y in (-1, 1) for x in (-1, 1)])
    cells = mesh.cells.copy()
    for c in range(mesh.n_cells):
        q = (corners @ rotations[rng.integers(len(rotations))].T + 1) // 2
        cells[c] = mesh.cells[c][q[:, 0] + 2 * q[:, 1] + 4 * q[:, 2]]
    forest = Forest(HexMesh(mesh.vertices, cells, dict(mesh.boundary_ids)))
    forest = forest.refine([forest.leaves[int(rng.integers(forest.n_cells))]]).balance()
    conn = build_connectivity(forest)
    codes = {b.orientation.code for b in conn.interior}
    assert codes & {1, 2, 3, 5, 6, 7} and any(b.subface is not None for b in conn.interior)
    return forest, conn
