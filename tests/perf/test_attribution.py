"""Tests of span-level work attribution and the roofline report."""

import pytest

from repro.parallel.machine import MachineModel
from repro.perf.attribution import (
    MACHINES,
    ROOFLINE_SCHEMA,
    KernelAttribution,
    as_span_root,
    collect_attribution,
    render_roofline,
    roofline_doc,
    subtree_attribution,
)
from repro.telemetry import SpanNode, Tracer

#: simple machine for exact-arithmetic assertions: 100 GFlop/s, 10 GB/s
TOY = MachineModel(
    name="toy",
    peak_flops_dp=100e9,
    mem_bandwidth=10e9,
    cache_per_core=1e6,
    n_cores=1,
    network_latency=1e-6,
    network_bandwidth=1e9,
)


def build_tracer():
    """step -> {vmult (2 visits, annotated), chebyshev (annotated)}, and
    the same vmult name under a second parent."""
    tr = Tracer(enabled=True)
    with tr.span("step"):
        for _ in range(2):
            with tr.span("vmult[Op]"):
                tr.annotate(flops=1e6, bytes=5e5, dofs=1000)
        with tr.span("chebyshev"):
            tr.annotate(flops=2e5, bytes=4e5, dofs=1000)
    with tr.span("setup"):
        with tr.span("vmult[Op]"):
            tr.annotate(flops=1e6, bytes=5e5, dofs=1000)
    return tr


class TestKernelAttribution:
    def test_achieved_rates(self):
        k = KernelAttribution("x", calls=4, seconds=0.5, inclusive_seconds=0.5,
                              flops=1e9, bytes=2e9, dofs=5e6)
        assert k.gflops_per_s == pytest.approx(2.0)
        assert k.gbytes_per_s == pytest.approx(4.0)
        assert k.intensity == pytest.approx(0.5)
        assert k.dofs_per_s == pytest.approx(1e7)

    def test_model_seconds_is_slower_limit(self):
        # memory-bound on TOY: 2e9 B / 10e9 B/s = 0.2 s > 1e9/100e9 = 0.01 s
        k = KernelAttribution("x", 1, 0.5, 0.5, 1e9, 2e9, 0.0)
        assert k.model_seconds(TOY) == pytest.approx(0.2)
        assert k.fraction_of_model(TOY) == pytest.approx(0.4)
        # compute-bound case
        c = KernelAttribution("y", 1, 0.5, 0.5, 5e10, 1e8, 0.0)
        assert c.model_seconds(TOY) == pytest.approx(0.5)
        assert c.fraction_of_model(TOY) == pytest.approx(1.0)

    def test_zero_time_is_safe(self):
        k = KernelAttribution("x", 0, 0.0, 0.0, 1e9, 1e9, 1e3)
        assert k.gflops_per_s == 0.0
        assert k.fraction_of_model(TOY) == 0.0

    def test_to_dict_includes_model_fields_with_machine(self):
        k = KernelAttribution("x", 1, 0.5, 0.5, 1e9, 2e9, 1e3)
        d = k.to_dict(TOY)
        assert d["fraction_of_model"] == pytest.approx(0.4)
        assert "model_seconds" in d
        assert "fraction_of_model" not in k.to_dict()


class TestCollect:
    def test_aggregates_same_name_across_parents(self):
        rows = collect_attribution(build_tracer())
        by_name = {r.name: r for r in rows}
        v = by_name["vmult[Op]"]
        assert v.calls == 3
        assert v.flops == pytest.approx(3e6)
        assert v.dofs == pytest.approx(3000)
        assert by_name["chebyshev"].flops == pytest.approx(2e5)
        # un-annotated parents never become kernel rows
        assert "step" not in by_name and "setup" not in by_name

    def test_rows_sorted_by_exclusive_seconds(self):
        rows = collect_attribution(build_tracer())
        secs = [r.seconds for r in rows]
        assert secs == sorted(secs, reverse=True)

    def test_from_snapshot_roundtrip(self):
        tr = build_tracer()
        rows_live = collect_attribution(tr)
        rows_snap = collect_attribution(tr.snapshot())
        assert {r.name for r in rows_snap} == {r.name for r in rows_live}
        live = {r.name: r for r in rows_live}
        for r in rows_snap:
            assert r.flops == pytest.approx(live[r.name].flops)
            assert r.calls == live[r.name].calls

    def test_span_work_serialization(self):
        tr = build_tracer()
        snap = tr.snapshot()
        work = snap["spans"]["step"]["children"]["vmult[Op]"]["work"]
        assert work["flops"] == pytest.approx(2e6)
        node = SpanNode.from_dict("vmult[Op]", snap["spans"]["step"]["children"]["vmult[Op]"])
        assert node.flops == pytest.approx(2e6)
        # un-annotated spans serialize without a work section
        assert "work" not in snap["spans"]["step"]

    def test_as_span_root_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_span_root(42)


class TestSubtree:
    def test_substeps_sum_child_work(self):
        rows = subtree_attribution(build_tracer())
        by_name = {r.name: r for r in rows}
        step = by_name["step"]
        # vmult 2 visits + chebyshev, inclusive
        assert step.flops == pytest.approx(2e6 + 2e5)
        assert step.bytes == pytest.approx(2 * 5e5 + 4e5)
        setup = by_name["setup"]
        assert setup.flops == pytest.approx(1e6)

    def test_named_selection(self):
        rows = subtree_attribution(build_tracer(), names={"chebyshev"})
        assert [r.name for r in rows] == ["chebyshev"]
        assert rows[0].flops == pytest.approx(2e5)

    def test_workless_subtrees_are_dropped(self):
        tr = Tracer(enabled=True)
        with tr.span("idle"):
            pass
        assert subtree_attribution(tr) == []


class TestRooflineDoc:
    def test_doc_schema_and_fields(self):
        doc = roofline_doc(build_tracer(), TOY, meta={"run": "test"})
        assert doc["schema"] == ROOFLINE_SCHEMA
        assert doc["machine"]["name"] == "toy"
        assert doc["meta"] == {"run": "test"}
        names = [k["name"] for k in doc["kernels"]]
        assert "vmult[Op]" in names and "chebyshev" in names
        for k in doc["kernels"]:
            for field in ("gflops_per_s", "gbytes_per_s", "intensity",
                          "fraction_of_model", "model_seconds"):
                assert field in k
        assert any(s["name"] == "step" for s in doc["substeps"])

    def test_render_contains_rates_and_substeps(self):
        out = render_roofline(build_tracer(), TOY)
        assert "vmult[Op]" in out
        assert "GFlop/s" in out and "%model" in out
        assert "sub-step subtree attribution" in out

    def test_render_without_annotations(self):
        out = render_roofline(Tracer(enabled=True), TOY)
        assert "no annotated spans" in out

    def test_machine_registry(self):
        assert set(MACHINES) == {"local", "supermuc-ng", "summit-v100",
                                 "fugaku-a64fx"}
        for m in MACHINES.values():
            assert m.peak_flops_dp > 0 and m.mem_bandwidth > 0


class TestOperatorInstrumentation:
    """The operator layer attaches its analytic work model to the spans
    the roofline consumes — end to end on a real mesh."""

    @pytest.fixture(scope="class")
    def traced(self):
        import numpy as np

        from repro.core.dof_handler import DGDofHandler
        from repro.core.operators import DGLaplaceOperator
        from repro.mesh.connectivity import build_connectivity
        from repro.mesh.generators import box
        from repro.mesh.mapping import GeometryField
        from repro.mesh.octree import Forest
        from repro.telemetry import TRACER

        forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1}))
        dof = DGDofHandler(forest, 2)
        op = DGLaplaceOperator(dof, GeometryField(forest, 2),
                               build_connectivity(forest), dirichlet_ids=(1,))
        x = np.linspace(0.0, 1.0, op.n_dofs)
        TRACER.reset()
        TRACER.enable()
        try:
            for _ in range(3):
                op.vmult(x)
            snap = TRACER.snapshot()
        finally:
            TRACER.disable()
            TRACER.reset()
        return op, snap

    def test_vmult_span_carries_work_model(self, traced):
        op, snap = traced
        rows = collect_attribution(snap)
        v = {r.name: r for r in rows}["vmult[DGLaplaceOperator]"]
        wm = op.work_model()
        assert v.calls == 3
        assert v.flops == pytest.approx(3 * wm["flops"])
        assert v.bytes == pytest.approx(3 * wm["bytes"])
        assert v.dofs == pytest.approx(3 * op.n_dofs)
        assert snap["spans"]["vmult[DGLaplaceOperator]"]["count"] == 3

    def test_work_model_matches_analytic_counts(self, traced):
        from repro.perf import laplace_flops, laplace_transfer

        op, _ = traced
        wm = op.work_model()
        conn = op.conn
        # boundary id 1 marks one of the ten boundary faces; the nine
        # Neumann faces carry no operator term and cost nothing
        assert conn.n_boundary_faces == 10
        # the box is axis-aligned: the model counts the stored diagonal
        # cell metric and normal-only face coefficient
        stored = len(op.laplace_d), len(op.face_data.b)
        assert stored == (3, 1)
        f = laplace_flops(op.dof.degree, op.kern.n_q_points, *stored)
        expected = f.matvec_total(op.dof.n_cells, conn.n_interior_faces, 1)
        assert wm["flops"] == pytest.approx(expected)
        assert wm["bytes"] >= laplace_transfer(
            op.dof.degree, op.kern.n_q_points, 8, 1, *stored
        ).total_bytes(op.dof.n_cells) * 0.99

    def test_work_model_charges_dirichlet_faces_only(self, traced):
        """All-Neumann: cells and interior faces only; all-Dirichlet:
        every boundary face too."""
        from repro.core.operators import DGLaplaceOperator
        from repro.perf import laplace_flops

        op, _ = traced
        conn = op.conn
        f = laplace_flops(op.dof.degree, op.kern.n_q_points, 3, 1)
        bulk = f.matvec_total(op.dof.n_cells, conn.n_interior_faces, 0)
        ids = tuple({b.boundary_id for b in conn.boundary})
        for dirichlet, n_faces in (((), 0), (ids, conn.n_boundary_faces)):
            wm = DGLaplaceOperator(op.dof, op.geo, conn, dirichlet_ids=dirichlet).work_model()
            assert wm["flops"] == bulk + n_faces * f.boundary_face
