"""Tests of partitioning, ghost exchange, machine models, the Flop and
memory models, and the scaling performance model."""

import numpy as np

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel import (
    FUGAKU_A64FX,
    SUMMIT_V100,
    SUPERMUC_NG,
    InProcessGhostRuntime,
    MatvecScalingModel,
    MultigridLevelSpec,
    MultigridSolveModel,
    partition_forest,
    partition_stats,
)
from repro.perf import (
    arithmetic_intensity,
    laplace_flops,
    laplace_transfer,
    measured_transfer,
)


def make_op(forest, degree=2):
    return DGLaplaceOperator(DGDofHandler(forest, degree),
                             GeometryField(forest, degree),
                             build_connectivity(forest), dirichlet_ids=())


class TestPartition:
    def test_balanced_cell_counts(self):
        forest = Forest(box(subdivisions=(4, 2, 2))).refine_all(1)
        for p in (2, 4, 7):
            ranks = partition_forest(forest, p)
            counts = np.bincount(ranks, minlength=p)
            assert counts.sum() == forest.n_cells
            assert counts.max() - counts.min() <= np.ceil(forest.n_cells / p) - np.floor(forest.n_cells / p) + 1

    def test_contiguous_morton_ranges(self):
        forest = Forest(box(subdivisions=(2, 2, 2))).refine_all(1)
        ranks = partition_forest(forest, 4)
        assert np.all(np.diff(ranks) >= 0)  # monotone along curve

    def test_stats_cut_faces(self):
        forest = Forest(box(subdivisions=(2, 1, 1)))
        conn = build_connectivity(forest)
        st = partition_stats(forest, conn, 2)
        assert st.cut_faces == 1
        assert st.max_neighbors() == 1
        assert st.max_cut_faces() == 1

    def test_single_rank_no_cuts(self):
        forest = Forest(box(subdivisions=(3, 2, 1)))
        conn = build_connectivity(forest)
        st = partition_stats(forest, conn, 1)
        assert st.cut_faces == 0

    def test_surface_to_volume_shrinks(self):
        """More ranks -> fewer cells/rank but relatively more cut faces."""
        forest = Forest(box(subdivisions=(4, 4, 4)))
        conn = build_connectivity(forest)
        s2 = partition_stats(forest, conn, 2)
        s8 = partition_stats(forest, conn, 8)
        assert s8.max_cells() < s2.max_cells()
        frac2 = s2.cut_faces / conn.n_interior_faces
        frac8 = s8.cut_faces / conn.n_interior_faces
        assert frac8 > frac2


class TestGhostExchange:
    def test_buffers_match_remote_traces(self, rng):
        """The in-process mailbox delivers exactly the ghost cells each
        rank's cut faces read, flat and with a leading axis."""
        forest = Forest(box(subdivisions=(4, 1, 1)))
        rt = InProcessGhostRuntime(make_op(forest), 2)
        plan = rt.plan
        for lead in ((), (3,)):
            x = rng.standard_normal(lead + (plan.n_dofs,))
            u = x.reshape(lead + (plan.n1,) * 3 + (plan.n_cells,))
            mail = rt.mailbox(x)
            assert any(mail.values())  # there is at least one cut face
            for rlo in rt.locals:
                ug = rlo.ghosts(mail[rlo.rank], lead, x.dtype)  # a lane block
                assert np.array_equal(ug, u[..., rlo.rank_plan.ghosts])

    def test_message_count_positive(self):
        forest = Forest(box(subdivisions=(4, 1, 1)))
        rt = InProcessGhostRuntime(make_op(forest), 4)
        mail = rt.mailbox(np.ones(rt.plan.n_dofs))
        sent = {(src, dst) for dst, box_ in mail.items() for src in box_}
        census = rt.plan.census()
        assert census.n_messages >= 2
        assert sent == census.pairs


class TestFlopAndMemoryModels:
    def test_flops_grow_with_degree(self):
        assert laplace_flops(5).cell > laplace_flops(2).cell

    def test_flops_per_dof_reasonable(self):
        """The paper's regime: O(100) Flop per DoF for the DG Laplacian."""
        for k in (2, 3, 4):
            f = laplace_flops(k)
            per_dof = f.cell / (k + 1) ** 3
            assert 30 < per_dof < 1000

    def test_transfer_model_dominated_by_vectors_and_metric(self):
        t = laplace_transfer(3)
        assert t.bytes_per_dof() > 3 * 8  # at least read+write+update
        assert measured_transfer(t).bytes_per_cell > t.bytes_per_cell

    def test_arithmetic_intensity_in_memory_bound_regime(self):
        """Figure 7: all interesting degrees sit left of the Skylake ridge
        (~17 Flop/Byte) — memory bandwidth limits the throughput."""
        for k in range(1, 7):
            f = laplace_flops(k)
            t = laplace_transfer(k)
            # each interior cell owns ~3 of its 6 faces
            ai = arithmetic_intensity(f.cell + 3 * f.inner_face, t.bytes_per_cell)
            assert ai < SUPERMUC_NG.flop_byte_ridge
            assert ai > 0.4  # far above pure streaming too

    def test_intensity_increases_with_degree(self):
        ais = [
            arithmetic_intensity(
                laplace_flops(k).cell + 3 * laplace_flops(k).inner_face,
                laplace_transfer(k).bytes_per_cell,
            )
            for k in (1, 3, 6)
        ]
        assert ais[0] < ais[1] < ais[2]


class TestMachineModels:
    def test_rooflines(self):
        assert SUPERMUC_NG.attainable_flops(1.0) == SUPERMUC_NG.mem_bandwidth
        assert SUPERMUC_NG.attainable_flops(1e3) == SUPERMUC_NG.peak_flops_dp

    def test_bandwidth_ordering(self):
        assert SUMMIT_V100.mem_bandwidth > SUPERMUC_NG.mem_bandwidth
        assert FUGAKU_A64FX.mem_bandwidth > SUPERMUC_NG.mem_bandwidth


class TestScalingModel:
    def test_saturated_throughput_matches_figure6(self):
        m = MatvecScalingModel(degree=3)
        assert np.isclose(m.saturated_throughput(), 1.4e9, rtol=0.01)

    def test_cache_bump(self):
        """Figure 8 right: throughput rises when the working set fits in
        L2+L3, before latency dominates."""
        m = MatvecScalingModel(degree=3)
        sat = m.throughput_per_node(50e6)
        cached = m.throughput_per_node(0.2e6)
        assert cached > 1.5 * sat

    def test_latency_floor_near_1e_minus_4(self):
        """Figure 8: scaling saturates slightly below 1e-4 s."""
        m = MatvecScalingModel(degree=3)
        series = m.strong_scaling(22e6, [2**i for i in range(0, 12)])
        tmin = min(t for _, t, _ in series)
        assert 2e-5 < tmin < 2e-4

    def test_strong_scaling_monotone_then_saturates(self):
        m = MatvecScalingModel(degree=3)
        series = m.strong_scaling(1e9, [8, 64, 512, 4096])
        times = [t for _, t, _ in series]
        assert times[0] > times[1] > times[2]

    def test_orientation_overhead_reduces_throughput(self):
        base = MatvecScalingModel(degree=3)
        lung = MatvecScalingModel(degree=3, face_orientation_overhead=0.25)
        assert lung.saturated_throughput() < base.saturated_throughput()


class TestMultigridModel:
    def make_model(self, fine_dofs=179e6, **kw):
        levels = [
            MultigridLevelSpec(n_dofs=fine_dofs, matvecs=8, degree=3),
            MultigridLevelSpec(n_dofs=fine_dofs / 2.5, matvecs=8, degree=3),
            MultigridLevelSpec(n_dofs=fine_dofs / 20, matvecs=8, degree=1),
            MultigridLevelSpec(n_dofs=fine_dofs / 160, matvecs=8, degree=1),
        ]
        return MultigridSolveModel(levels=levels, **kw)

    def test_vcycle_breakdown_sums(self):
        model = self.make_model()
        parts = model.vcycle_level_times(1024)
        assert np.isclose(sum(parts), model.vcycle_time(1024), rtol=1e-12)

    def test_amg_dominates_at_scale(self):
        """Figure 10: at 1024 nodes the AMG coarse solve is ~45% of the
        V-cycle for the lung case."""
        model = self.make_model(amg_time=3.5e-3)
        parts = model.vcycle_level_times(1024)
        frac_amg = parts[-1] / sum(parts)
        assert 0.25 < frac_amg < 0.7

    def test_fine_levels_dominate_at_small_scale(self):
        model = self.make_model(amg_time=3.5e-3)
        parts = model.vcycle_level_times(64)
        assert (parts[0] + parts[1]) / sum(parts) > 0.5

    def test_solve_time_scales_with_iterations(self):
        model = self.make_model()
        t9 = model.solve_time(9, 512)
        t21 = model.solve_time(21, 512)
        assert np.isclose(t21 / t9, 21 / 9, rtol=0.05)

    def test_bifurcation_solve_reaches_0p1s(self):
        """Figure 9: the bifurcation Poisson solve strong-scales to ~0.1 s
        at tol 1e-10 (9 iterations)."""
        levels = [
            MultigridLevelSpec(n_dofs=1e9, matvecs=8, degree=3),
            MultigridLevelSpec(n_dofs=4e8, matvecs=8, degree=3),
            MultigridLevelSpec(n_dofs=5e7, matvecs=8, degree=1),
            MultigridLevelSpec(n_dofs=6e6, matvecs=8, degree=1),
            MultigridLevelSpec(n_dofs=8e5, matvecs=8, degree=1),
        ]
        model = MultigridSolveModel(levels=levels, amg_time=3e-4)
        times = [model.solve_time(9, p) for p in (256, 1024, 4096, 6400)]
        assert min(times) < 0.2
        assert times[0] > times[-1]
