"""Set-up is per forest: the batched mapping, face index and hierarchy
must reproduce what the per-leaf code produced.

``tests/golden/connectivity.json`` pins, per mesh, the connectivity
batches (keys, order and cell arrays), the CG numbering and a
fingerprint of the nodal geometry.  It was generated at the commit
*before* the per-leaf loops were replaced; regenerate it only for an
intended change of batch order or numbering (see TESTING.md):

    PYTHONPATH=src python tests/mesh/test_forest_setup.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators.laplace import DGLaplaceOperator
from repro.mesh import connectivity, hexmesh, octree, transfinite
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box, cylinder
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "connectivity.json"
SCHEMA = "repro-connectivity-golden/1"


# -- the meshes ---------------------------------------------------------
def _hanging_box():
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
    return forest.refine([forest.leaves[0]]).balance(), None


def _tapered_cylinder():
    return Forest(cylinder(n_axial=2, smooth=True, taper_radius=0.8)).refine_all(1), None


def _bifurcation():
    return Forest(bifurcation(opening_angle_deg=60.0)), None


def _lung(seed, refine_upper_generations=0):
    def make():
        from repro.lung.airway_mesh import airway_tree_mesh
        from repro.lung.tree import grow_airway_tree

        tree = grow_airway_tree(2, seed=seed)
        return airway_tree_mesh(
            tree, refine_upper_generations, max_refine_generation=0).forest, None

    return make


def _periodic_box():
    mesh = box(subdivisions=(2, 2, 2),
               boundary_ids={0: 10, 1: 11, 2: 20, 3: 21, 4: 30, 5: 31})
    return Forest(mesh).refine_all(1), [(10, 11, (1.0, 0, 0)), (30, 31, (0, 0, 1.0))]


MESHES = {
    "hanging_box": _hanging_box,
    "tapered_cylinder": _tapered_cylinder,
    "bifurcation_60": _bifurcation,
    "lung_g2_seed0": _lung(0),
    "lung_g2_seed2": _lung(2),
    # hanging faces between trees of different orientation, curved walls
    "lung_g2_seed0_trachea_refined": _lung(0, refine_upper_generations=1),
    "periodic_box": _periodic_box,
}
#: degree of the pinned ``GeometryField.X`` / CG numbering per mesh
DEGREE = 2


# -- digests ------------------------------------------------------------
def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def connectivity_record(conn) -> dict:
    """Batch keys in order plus one hash over every cell array."""
    interior = [
        [b.face_m, b.face_p, b.orientation.code,
         list(b.subface) if b.subface is not None else None, int(b.n_faces)]
        for b in conn.interior
    ]
    boundary = [[b.face, b.boundary_id, int(b.n_faces)] for b in conn.boundary]
    arrays = [a for b in conn.interior for a in (b.cells_m, b.cells_p)]
    arrays += [b.cells for b in conn.boundary]
    return {"interior": interior, "boundary": boundary, "cells_sha256": _sha(*arrays)}


def geometry_fingerprint(X: np.ndarray) -> list[float]:
    """Round-off-tolerant fingerprint of a coordinate array: 2-norm,
    max-norm and the dot product with a fixed pseudo-random vector."""
    r = np.random.default_rng(22).standard_normal(X.size)
    flat = X.ravel()
    return [float(np.linalg.norm(flat)), float(np.abs(flat).max()), float(r @ flat)]


def mesh_record(name: str) -> dict:
    forest, periodic = MESHES[name]()
    conn = build_connectivity(forest, periodic=periodic)
    dof = CGDofHandler(forest, DEGREE, connectivity=build_connectivity(forest))
    return {
        "n_cells": forest.n_cells,
        "connectivity": connectivity_record(conn),
        "cg_n_global": int(dof.n_global),
        "cg_cell_to_global_sha256": _sha(dof.cell_to_global),
        "geometry_X": geometry_fingerprint(GeometryField(forest, DEGREE).X),
    }


def _write_golden() -> None:
    """One compact line per mesh, so a diff names the mesh that moved."""
    rows = ",\n".join(
        f'  {json.dumps(name)}: {json.dumps(mesh_record(name), separators=(",", ":"))}'
        for name in MESHES
    )
    GOLDEN.write_text(
        f'{{\n "schema": "{SCHEMA}",\n "degree": {DEGREE},\n "meshes": {{\n{rows}\n }}\n}}\n'
    )


# -- equivalence --------------------------------------------------------
@pytest.fixture(scope="module")
def golden() -> dict:
    doc = json.loads(GOLDEN.read_text())
    assert doc["schema"] == SCHEMA and doc["degree"] == DEGREE
    return doc["meshes"]


def _unit_lattice(n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    zz, yy, xx = np.meshgrid(t, t, t, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)


def _per_leaf_reference(forest: Forest, unit: np.ndarray, smooth: bool) -> np.ndarray:
    """The per-leaf loop the batched mapping replaced."""
    coarse = forest.coarse
    mapper = coarse.map_geometry if smooth else coarse.map_trilinear
    out = np.empty((forest.n_cells, len(unit), 3))
    for c, leaf in enumerate(forest.leaves):
        h = 1.0 / (1 << leaf.level)
        out[c] = mapper(leaf.tree, (np.array(leaf.anchor, dtype=float) + unit) * h)
    return out


@pytest.mark.parametrize("name", list(MESHES))
class TestBatchedSetupEquivalence:
    def test_mapping_equals_per_tree_reference(self, name):
        forest, _ = MESHES[name]()
        unit = _unit_lattice(3)
        scale = np.abs(forest.coarse.vertices).max()
        for smooth in (True, False):
            got = forest.leaf_points(unit, smooth=smooth)
            want = _per_leaf_reference(forest, unit, smooth)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * scale
        corners = forest.corner_points
        assert corners.shape == (forest.n_cells, 8, 3)
        assert np.array_equal(corners, forest.leaf_points(_unit_lattice(2), smooth=False))
        assert np.array_equal(forest.cell_corner_points(0), corners[0])

    def test_connectivity_batches_equal_parent(self, name, golden):
        forest, periodic = MESHES[name]()
        assert forest.n_cells == golden[name]["n_cells"]
        got = connectivity_record(build_connectivity(forest, periodic=periodic))
        assert got == golden[name]["connectivity"]

    def test_cg_numbering_and_geometry_equal_parent(self, name, golden):
        forest, _ = MESHES[name]()
        want = golden[name]
        dof = CGDofHandler(forest, DEGREE)
        assert dof.n_global == want["cg_n_global"]
        assert _sha(dof.cell_to_global) == want["cg_cell_to_global_sha256"]
        X = GeometryField(forest, DEGREE).X
        np.testing.assert_allclose(
            geometry_fingerprint(X), want["geometry_X"],
            rtol=0, atol=1e-13 * want["geometry_X"][0])


# -- the regression guard: counts, not timings ----------------------------
@pytest.fixture
def tally(monkeypatch):
    """Counts Python-level ``trilinear`` evaluations and face-index
    builds; ``tally.fields`` lists every ``GeometryField`` constructed as
    ``(forest, degree, n_q_points)``."""
    tally = Counter()
    tally.fields = []

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_trilinear = counting(hexmesh.trilinear, "trilinear")
    for module in (hexmesh, octree, connectivity, transfinite):
        monkeypatch.setattr(module, "trilinear", counted_trilinear)
    monkeypatch.setattr(
        connectivity, "build_face_index",
        counting(connectivity.build_face_index, "face_index"))
    init = GeometryField.__init__

    def counted_init(self, forest, degree, n_q_points=None, **kwargs):
        tally.fields.append((forest, degree, n_q_points or degree + 1))
        init(self, forest, degree, n_q_points, **kwargs)

    monkeypatch.setattr(GeometryField, "__init__", counted_init)
    return tally


def _box_multigrid(refine, subdivisions=(2, 1, 1), degree=3):
    """The ``poisson_box_r3`` set-up of ``benchmarks/e2e/workloads.py``."""
    from repro.solvers.multigrid import HybridMultigridPreconditioner

    forest = Forest(box(subdivisions=subdivisions, boundary_ids={0: 1})).refine_all(refine)
    op = DGLaplaceOperator(
        DGDofHandler(forest, degree), GeometryField(forest, degree),
        connectivity.build_connectivity(forest), dirichlet_ids=(1,))
    return HybridMultigridPreconditioner(op)


def _assert_one_field_per_forest_and_degree(tally):
    keys = [(id(forest), degree, nq) for forest, degree, nq in tally.fields]
    assert len(keys) == len(set(keys))


class TestSetupCostIsPerForest:
    def test_geometry_evaluations_do_not_scale_with_cells(self, tally):
        per_refinement = []
        for refine in (1, 2, 3):
            tally.clear()
            _box_multigrid(refine)
            per_refinement.append(tally["trilinear"])
        c1, c2, c3 = per_refinement
        # one more h-level adds a constant; 8x the cells adds nothing
        assert c3 - c2 == c2 - c1
        tally.clear()
        _box_multigrid(2, subdivisions=(4, 2, 2))
        assert tally["trilinear"] == c2
        assert c3 <= 32  # the per-leaf code issued 8 346

    def test_hierarchy_builds_each_level_once(self, tally):
        mg = _box_multigrid(3)
        forests = {id(forest) for forest, _, _ in tally.fields}
        assert len(forests) == 4 == len(mg.levels) - 2  # DG, CG k=3, CG k=1 share the finest
        assert tally["face_index"] <= len(forests)
        _assert_one_field_per_forest_and_degree(tally)

    def test_lung_construction(self, tally):
        from repro.lung.simulation import LungVentilationSimulation
        from repro.robustness import RunConfig

        sim = LungVentilationSimulation(RunConfig(generations=2, degree=2))
        assert tally["face_index"] <= 1
        _assert_one_field_per_forest_and_degree(tally)
        assert sim.lung.forest.n_cells > 100
        assert tally["trilinear"] <= 12  # the per-leaf code issued 520, five per cell

    def test_geometry_callable_is_called_once_per_tree(self):
        mesh = cylinder(n_axial=2, smooth=True, taper_radius=0.8)
        calls = Counter()
        smooth = mesh.geometry

        def counted(tree, ref):
            calls[tree] += 1
            return smooth(tree, ref)

        mesh.geometry = counted
        for refine in (1, 2):
            calls.clear()
            GeometryField(Forest(mesh).refine_all(refine), 2)
            assert calls == Counter(range(mesh.n_cells))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write_golden()
