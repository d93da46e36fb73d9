"""Shared pytest configuration: test tiers, the seeded RNG fixture and
the meshes where face plans can go wrong.

Tiers (see TESTING.md):

* ``tier1`` — the fast default gate.  Auto-applied to every test that is
  not marked ``convergence`` or ``nightly``, so a plain ``pytest`` (or
  ``pytest -m tier1``) runs exactly the seed suite plus any new fast
  tests.
* ``convergence`` — refinement-ladder rate gates (minutes).  Skipped by
  default; enable with ``--run-convergence`` or by selecting them
  explicitly (``pytest -m convergence``).
* ``nightly`` — the long verification runs CI schedules overnight.
  Skipped by default; enable with ``--run-nightly`` or ``-m nightly``.
* ``parallel`` — multi-worker-process tests (real fork + shared-memory
  pools; seconds each).  Skipped by default; enable with
  ``--run-parallel`` or ``-m parallel``.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.hexmesh import HexMesh
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest

_OPTIONAL_TIERS = ("convergence", "nightly", "parallel")


def pytest_addoption(parser):
    for tier in _OPTIONAL_TIERS:
        parser.addoption(
            f"--run-{tier}",
            action="store_true",
            default=False,
            help=f"run tests marked '{tier}' (skipped by default)",
        )


def _tier_enabled(config, tier: str) -> bool:
    """A tier runs when its flag is passed or when the user's ``-m``
    expression mentions it (so ``pytest -m convergence`` just works)."""
    if config.getoption(f"--run-{tier}"):
        return True
    return tier in (config.getoption("-m") or "")


def pytest_collection_modifyitems(config, items):
    skips = {
        tier: pytest.mark.skip(
            reason=f"{tier} tier: pass --run-{tier} (or -m {tier}) to run"
        )
        for tier in _OPTIONAL_TIERS
        if not _tier_enabled(config, tier)
    }
    for item in items:
        # match actual markers, not item.keywords: keywords also contain
        # package/module names, and tests/parallel/ would otherwise put
        # every test in its directory into the 'parallel' tier
        tiers = [
            t for t in _OPTIONAL_TIERS
            if item.get_closest_marker(t) is not None
        ]
        if not tiers:
            item.add_marker(pytest.mark.tier1)
        for t in tiers:
            if t in skips:
                item.add_marker(skips[t])


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Seeded per-test RNG: the seed is derived from the test's node id,
    so every test gets a distinct but fully reproducible stream and
    reordering tests never changes any test's random data."""
    seed = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng(seed)


def lane_block(cells: np.ndarray) -> np.ndarray:
    """Cell-major tensors ``(..., N, n, n, n)`` of a reference built cell
    by cell as the lane block ``(..., n, n, n, N)`` — the order of a DG
    vector (:meth:`DGDofHandler.lanes`) once flattened."""
    return np.moveaxis(cells, -4, -1)


def dense_jinv_t(jinv_t: np.ndarray) -> np.ndarray:
    """The stored ``CellMetrics.jinv_t`` (9 or 3 planes) as the full
    ``(3, 3, ...)`` matrix ``J^{-T}[l, m]``, zeros where not stored."""
    if len(jinv_t) == 9:
        return jinv_t.reshape((3, 3) + jinv_t.shape[1:])
    full = np.zeros((3, 3) + jinv_t.shape[1:], jinv_t.dtype)
    for l in range(3):
        full[l, l] = jinv_t[l]
    return full


def interpolate_per_leaf(dof_u, forest, fn) -> np.ndarray:
    """Nodal interpolation of ``fn(x, y, z) -> (3, ...)`` into the
    velocity space, with one geometry evaluation and one call of ``fn``
    per leaf: the reference of the solver's batched
    ``interpolate_velocity``."""
    from repro.core.basis import LagrangeBasis1D

    n = dof_u.n1
    nodes = LagrangeBasis1D(dof_u.degree).nodes
    zz, yy, xx = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    ref = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    out = np.empty((3, forest.n_cells, n, n, n))
    for c, leaf in enumerate(forest.leaves):
        pts = forest.coarse.map_geometry(leaf.tree, leaf.ref_points(ref))
        out[:, c] = np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2])).reshape(3, n, n, n)
    return lane_block(out).reshape(-1)


# -- meshes where face plans can go wrong (hanging, reoriented, curved) --

def curved_hanging_forest(rng) -> Forest:
    """Randomized bifurcation (curved, non-identity orientations) with
    one randomly picked cell refined (2:1 hanging faces)."""
    forest = Forest(bifurcation(opening_angle_deg=float(rng.uniform(40.0, 80.0))))
    pick = int(rng.integers(0, forest.n_cells))
    return forest.refine([forest.leaves[pick]]).balance()


@pytest.fixture
def curved_hanging(rng):
    """:func:`curved_hanging_forest`'s k=2 ``(geometry, connectivity,
    DGLaplaceOperator)``."""
    forest = curved_hanging_forest(rng)
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


def rotated_hanging_forest(rng) -> Forest:
    """The unit box in 2x2x2 cells sheared by ``SHEAR`` (so ``J^{-1} n``
    has tangential components), each cell's local frame randomly rotated
    — shared faces carry swapped and flipped orientations — with one
    cell refined (2:1 hanging faces); Dirichlet id 1 on two sides."""
    mesh = box(subdivisions=(2, 2, 2), boundary_ids={0: 1, 3: 1})
    mesh.vertices = mesh.vertices @ SHEAR.T
    rotations = list(_cube_rotations())
    corners = np.array([(x, y, z) for z in (-1, 1) for y in (-1, 1) for x in (-1, 1)])
    cells = mesh.cells.copy()
    for c in range(mesh.n_cells):
        q = (corners @ rotations[rng.integers(len(rotations))].T + 1) // 2
        cells[c] = mesh.cells[c][q[:, 0] + 2 * q[:, 1] + 4 * q[:, 2]]
    forest = Forest(HexMesh(mesh.vertices, cells, dict(mesh.boundary_ids)))
    return forest.refine([forest.leaves[int(rng.integers(forest.n_cells))]]).balance()


@pytest.fixture
def rotated_hanging_box(rng):
    """:func:`rotated_hanging_forest` ``(forest, connectivity)``."""
    forest = rotated_hanging_forest(rng)
    conn = build_connectivity(forest)
    codes = {b.orientation.code for b in conn.interior}
    assert codes & {1, 2, 3, 5, 6, 7} and any(b.subface is not None for b in conn.interior)
    return forest, conn
