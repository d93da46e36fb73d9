"""Tests of the high-order geometry field and metric terms."""

import numpy as np
import pytest

from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box, cylinder, unit_cube
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest

from ..conftest import dense_jinv_t


class TestCellMetrics:
    def test_unit_cube_identity_metrics(self):
        geo = GeometryField(Forest(unit_cube()), degree=2)
        cm = geo.cell_metrics()
        assert np.isclose(cm.jxw.sum(), 1.0)
        eye = np.eye(3)[:, :, None, None, None, None]
        jinv_t = dense_jinv_t(cm.jinv_t)
        assert np.allclose(jinv_t, np.broadcast_to(eye, jinv_t.shape))
        assert np.allclose(cm.det_j, 1.0)

    def test_refined_cube_volume(self):
        geo = GeometryField(Forest(unit_cube()).refine_all(2), degree=1)
        cm = geo.cell_metrics()
        assert np.isclose(cm.jxw.sum(), 1.0)
        assert np.allclose(cm.det_j, (1 / 4) ** 3)

    def test_stretched_box(self):
        mesh = box(upper=(2.0, 3.0, 0.5))
        geo = GeometryField(Forest(mesh), degree=3)
        cm = geo.cell_metrics()
        assert np.isclose(cm.jxw.sum(), 3.0)
        # J^{-T} diagonal = 1/scale
        jinv_t = dense_jinv_t(cm.jinv_t)
        assert np.allclose(jinv_t[0, 0, ..., 0], 1 / 2.0)
        assert np.allclose(jinv_t[1, 1, ..., 0], 1 / 3.0)
        assert np.allclose(jinv_t[2, 2, ..., 0], 1 / 0.5)

    def test_quadrature_points_in_physical_space(self):
        mesh = box(lower=(1, 1, 1), upper=(2, 2, 2))
        geo = GeometryField(Forest(mesh), degree=2)
        cm = geo.cell_metrics()
        assert cm.points.min() > 1.0 and cm.points.max() < 2.0

    def test_cylinder_volume_converges_with_degree(self):
        """Volume of the transfinite cylinder approaches pi r^2 L as the
        polynomial geometry degree rises."""
        mesh = cylinder(radius=1.0, length=2.0, n_axial=2, smooth=True)
        exact = np.pi * 2.0
        errors = []
        for k in (1, 2, 4):
            geo = GeometryField(Forest(mesh), degree=k)
            vol = geo.cell_metrics().jxw.sum()
            errors.append(abs(vol - exact) / exact)
        assert errors[1] < 0.3 * errors[0]
        assert errors[2] < 0.2 * errors[1]
        assert errors[2] < 1e-4

    def test_inverted_cell_raises(self):
        mesh = unit_cube()
        mesh.vertices = mesh.vertices.copy()
        # swap two vertices to invert the cell
        mesh.cells = mesh.cells.copy()
        mesh.cells[0, [0, 1]] = mesh.cells[0, [1, 0]]
        geo = GeometryField(Forest(mesh), degree=1)
        with pytest.raises(ValueError, match="Jacobian"):
            geo.cell_metrics()


class TestFaceMetrics:
    def test_box_boundary_normals_and_area(self):
        geo = GeometryField(Forest(box(upper=(2.0, 1.0, 1.0))), degree=2)
        conn = build_connectivity(geo.forest)
        for batch in conn.boundary:
            fm = geo.boundary_metrics(batch)
            d, s = divmod(batch.face, 2)
            expected_n = np.zeros(3)
            expected_n[d] = 1.0 if s == 1 else -1.0
            assert np.allclose(fm.normal, expected_n[None, :, None, None])
            area = fm.jxw.sum()
            assert np.isclose(area, 1.0 if d == 0 else 2.0)

    def test_interior_face_area(self):
        geo = GeometryField(Forest(box(subdivisions=(2, 1, 1))), degree=2)
        conn = build_connectivity(geo.forest)
        fm = geo.face_metrics(conn.interior[0])
        assert np.isclose(fm.jxw.sum(), 1.0)
        assert fm.normal.shape[1] == 3

    def test_hanging_face_area_is_quarter(self):
        f = Forest(box(subdivisions=(2, 1, 1)))
        f = f.refine([f.leaves[0]])
        geo = GeometryField(f, degree=2)
        conn = build_connectivity(f)
        for batch in conn.interior:
            fm = geo.face_metrics(batch)
            if batch.is_hanging:
                assert np.allclose(fm.jxw.reshape(batch.n_faces, -1).sum(axis=1), 0.25)

    def test_face_points_consistent_between_sides(self):
        """The plus-side metric data is evaluated at the same physical
        points as the minus side: check with positions via a strongly
        sheared two-cell mesh."""
        vertices = np.array(
            [
                [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
                [2, 0.2, 0], [2, 1.2, 0], [2, 0.2, 1], [2, 1.2, 1],
            ],
            dtype=float,
        )
        from repro.mesh.hexmesh import HexMesh

        cells = np.array([
            [0, 1, 2, 3, 4, 5, 6, 7],
            [1, 8, 3, 9, 5, 10, 7, 11],
        ])
        geo = GeometryField(Forest(HexMesh(vertices, cells)), degree=2)
        conn = build_connectivity(geo.forest)
        assert len(conn.interior) == 1
        batch = conn.interior[0]
        fm = geo.face_metrics(batch)
        # recompute plus positions directly: they must match fm.points
        qXp, _ = geo._side_face_data(batch.cells_p, batch.face_p, batch.orientation, batch.subface)
        assert np.allclose(qXp, fm.points, atol=1e-12)

    def test_penalty_positive(self):
        geo = GeometryField(Forest(unit_cube()).refine_all(1), degree=2)
        conn = build_connectivity(geo.forest)
        for batch in conn.interior:
            fm = geo.face_metrics(batch)
            assert np.all(fm.penalty > 0)
