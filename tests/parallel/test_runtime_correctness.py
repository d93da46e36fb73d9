"""Parallel-correctness battery for the real distributed runtime.

The contract under test (see ``repro.parallel.runtime``): the
rank-decomposed mat-vec — in-process or across a real fork +
shared-memory worker pool — reproduces the monolithic operator
*bitwise* in double precision (canonical accumulation order plus
padded face-batch subsets), within tolerance in single precision
(BLAS sgemm row-blocking rounds subsets differently), and its exchange
census agrees with the operator-free model census
(:func:`~repro.parallel.partition_stats`) and with the outboxes the plan
creates.

The in-process half runs in tier1; tests that fork real worker
processes are marked ``parallel`` (enable with ``--run-parallel``).
"""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel import (
    InProcessGhostRuntime,
    PartitionPlan,
    WorkerPool,
    partition_stats,
)
from repro.parallel.runtime import DistributedSolverContext
from repro.solvers import HybridMultigridPreconditioner, conjugate_gradient
from repro.solvers.multigrid import operator_to_dtype
from repro.telemetry import METRICS
from repro.telemetry.metrics import snapshot_doc
from repro.verification import random_curved_forest


def make_op(forest, degree=2, dirichlet=(1,)):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet)


def random_space(rng, degree=2):
    """A randomized curved/hanging-node mesh with a Dirichlet id drawn
    from the boundary ids actually present."""
    forest = random_curved_forest(rng)
    conn = build_connectivity(forest)
    present = sorted({b.boundary_id for b in conn.boundary})
    geo = GeometryField(forest, degree)
    dof = DGDofHandler(forest, degree)
    return DGLaplaceOperator(
        dof, geo, conn, dirichlet_ids=tuple(present[:1])
    )


def assert_census_parity(op, n_ranks, weights=None):
    """The plan's census against the model census of the same partition
    and against the set of outboxes the plan creates."""
    plan = PartitionPlan(op, n_ranks, weights=weights)
    census = plan.census()
    stats = partition_stats(op.geo.forest, op.conn, n_ranks, weights)
    assert census.n_messages == stats.neighbors_per_rank.sum()
    assert census.n_sheets == 2 * stats.cut_faces
    sheet = 2 * plan.n1 ** 2 * np.dtype(op.dtype).itemsize
    assert census.bytes_total == census.n_sheets * sheet
    outboxes = {(rp.rank, d) for rp in plan.rank_plans for d in rp.send}
    assert census.pairs == outboxes
    assert census.n_messages == len(outboxes)
    return plan, census


class TestCensusParity:
    """The exchange census == the model census == the runtime's
    outboxes, message for message."""

    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 7])
    def test_box_census_matches_simulated(self, n_ranks):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        _, census = assert_census_parity(make_op(forest), n_ranks)
        assert census.n_messages > 0

    def test_randomized_partitions_census(self, rng):
        for _ in range(6):
            assert_census_parity(random_space(rng), int(rng.integers(2, 5)))

    def test_weighted_partition_census(self, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        weights = rng.uniform(0.5, 2.0, size=forest.n_cells)
        assert_census_parity(make_op(forest), 3, weights=weights)

    def test_fp32_census_counts_four_byte_items(self):
        """Census bytes follow the operator's dtype exactly as the shipped
        payload does: a float32 clone reports half the float64 bytes."""
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        op32 = operator_to_dtype(op, np.float32)
        plan64, census64 = assert_census_parity(op, 3)
        plan32, census32 = assert_census_parity(op32, 3)
        assert 2 * census32.bytes_total == census64.bytes_total
        assert 2 * plan32.payload_bytes() == plan64.payload_bytes()


class TestInProcessBitwise:
    """The rank-decomposed mat-vec with the full pack/post/interior/
    wait/cut protocol, run sequentially in one process: the bitwise
    oracle the worker pool is then compared against."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7])
    def test_box_bitwise_fp64(self, n_ranks, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        rt = InProcessGhostRuntime(op, n_ranks)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_randomized_meshes_bitwise_fp64(self, rng):
        for _ in range(6):
            op = random_space(rng)
            n_ranks = int(rng.integers(2, 5))
            rt = InProcessGhostRuntime(op, n_ranks)
            x = rng.standard_normal(op.n_dofs)
            assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_hanging_node_mesh_bitwise_fp64(self, rng):
        f = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1}))
        f = f.refine([f.leaves[0]]).balance()
        op = make_op(f, degree=3)
        rt = InProcessGhostRuntime(op, 3)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_bifurcation_orientations_bitwise_fp64(self, rng):
        op = make_op(Forest(bifurcation()), degree=2, dirichlet=(1, 2, 3))
        rt = InProcessGhostRuntime(op, 4)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    @pytest.mark.parametrize("members", [1, 3])
    def test_ensemble_axis_bitwise_fp64(self, members, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        rt = InProcessGhostRuntime(op, 3)
        x = rng.standard_normal((members, op.n_dofs))
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_weighted_partition_bitwise_fp64(self, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        weights = rng.uniform(0.5, 2.0, size=forest.n_cells)
        rt = InProcessGhostRuntime(op, 3, weights=weights)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_fp32_within_tolerance(self, rng):
        # fp32 subsets are *not* bitwise (sgemm row-blocking depends on
        # the GEMM row count); the contract is 1e-5 relative
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op32 = operator_to_dtype(make_op(forest), np.float32)
        for n_ranks in (2, 3, 4):
            rt = InProcessGhostRuntime(op32, n_ranks)
            x = rng.standard_normal(op32.n_dofs).astype(np.float32)
            y_ref = op32.vmult(x)
            y = rt.vmult(x)
            assert y.dtype == y_ref.dtype
            scale = np.abs(y_ref).max()
            assert np.abs(y - y_ref).max() <= 1e-5 * max(scale, 1.0)


class TestRankWithoutCells:
    """Two ranks on a one-cell mesh (``repro poisson --refine 0
    --workers 2``): the rank that owns no cell runs empty blocks and
    contributes nothing.  One real two-worker round costs a few
    milliseconds, so both halves run in tier1."""

    @pytest.fixture
    def op(self):
        return make_op(Forest(box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})),
                       degree=3)

    def test_in_process_bitwise_fp64(self, op, rng):
        rt = InProcessGhostRuntime(op, 2)
        assert sorted(rp.n_cells for rp in rt.plan.rank_plans) == [0, 1]
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_pool_bitwise_fp64(self, op, rng):
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            assert np.array_equal(pool.vmult("op", x), op.vmult(x))


@pytest.mark.parallel
class TestWorkerPoolBitwise:
    """The same contract across real fork + shared-memory workers."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_pool_vmult_bitwise_fp64(self, n_workers, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        x = rng.standard_normal(op.n_dofs)
        xE = rng.standard_normal((3, op.n_dofs))
        pool = WorkerPool(n_workers)
        pool.register("op", op)
        with pool:
            assert np.array_equal(pool.vmult("op", x), op.vmult(x))
            assert np.array_equal(pool.vmult("op", xE), op.vmult(xE))
            # repeated rounds reuse the shared-memory session
            assert np.array_equal(pool.vmult("op", x), op.vmult(x))

    def test_pool_unit_lead_is_flat_bitwise(self, rng):
        """A ``(1, n)`` round runs its own ``lead = (1,)`` session and
        equals the flat round bit for bit; closing unlinks both."""
        import glob

        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            y1 = pool.vmult("op", x[None])
            assert y1.shape == (1, op.n_dofs)
            assert np.array_equal(y1, pool.vmult("op", x)[None])
            assert np.array_equal(y1, op.vmult(x[None]))
        assert glob.glob(f"/dev/shm/{pool.shm_prefix}*") == []

    def test_pool_randomized_mesh_bitwise_fp64(self, rng):
        op = random_space(rng)
        n_workers = int(rng.integers(2, 5))
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(n_workers)
        pool.register("op", op)
        with pool:
            assert np.array_equal(pool.vmult("op", x), op.vmult(x))

    def test_pool_fp32_within_tolerance(self, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op32 = operator_to_dtype(make_op(forest), np.float32)
        x = rng.standard_normal(op32.n_dofs).astype(np.float32)
        y_ref = op32.vmult(x)
        pool = WorkerPool(2)
        pool.register("op", op32)
        with pool:
            y = pool.vmult("op", x)
        scale = max(float(np.abs(y_ref).max()), 1.0)
        assert np.abs(y - y_ref).max() <= 1e-5 * scale

    def test_distributed_cg_bitwise_fp64(self, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        b = rng.standard_normal(op.n_dofs)
        ref = conjugate_gradient(op, b, tol=1e-8, name="ref")
        pool = WorkerPool(2)
        pool.register("op", op)
        with pool:
            from repro.parallel import DistributedOperator

            dist = DistributedOperator(pool, "op", op)
            res = conjugate_gradient(dist, b, tol=1e-8, name="dist")
        assert res.n_iterations == ref.n_iterations
        assert res.residuals == ref.residuals
        assert np.array_equal(res.x, ref.x)

    def test_solver_context_poisson_bitwise_fp64(self, rng):
        forest = Forest(box(subdivisions=(2, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest, degree=2)
        mg = HybridMultigridPreconditioner(op)
        b = rng.standard_normal(op.n_dofs)
        ref = conjugate_gradient(op, b, mg, tol=1e-10, name="ref")
        with DistributedSolverContext(op, mg, n_workers=2) as ctx:
            assert ctx.census.n_messages > 0
            res = conjugate_gradient(ctx.operator, b, mg, tol=1e-10,
                                     name="dist")
        assert res.residuals == ref.residuals
        assert np.array_equal(res.x, ref.x)

    def test_solver_context_restores_serial_operators(self):
        forest = Forest(box(subdivisions=(2, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest, degree=2)
        mg = HybridMultigridPreconditioner(op)
        fine_op = mg.levels[0].operator
        fine_sm = mg.levels[0].smoother.op
        with DistributedSolverContext(
            op, mg, n_workers=2, distribute_single_precision=True
        ) as ctx:
            assert mg.levels[0].operator is not fine_op
            assert ctx.operator.vmult is not None
        assert mg.levels[0].operator is fine_op
        assert mg.levels[0].smoother.op is fine_sm

    def test_worker_metrics_merge(self, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        x = rng.standard_normal(op.n_dofs)
        pool = WorkerPool(2)
        pool.register("op", op)
        METRICS.reset()
        METRICS.enable()
        try:
            with pool:
                pool.vmult("op", x)
            merged = snapshot_doc(METRICS)
        finally:
            METRICS.disable()
            METRICS.reset()
        by_name = {m["name"]: m for m in merged["metrics"]}
        vm = by_name["repro_parallel_worker_vmults_total"]
        # the master counts both workers' shares of the round
        assert sum(s["value"] for s in vm["samples"]) == 2.0
        phases = by_name["repro_parallel_worker_phase_seconds_total"]
        seen = {s["labels"][0] for s in phases["samples"]}
        assert {"pack", "interior", "wait", "cut",
                "accumulate"} <= seen
