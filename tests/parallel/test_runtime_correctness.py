"""Parallel-correctness battery for the real distributed runtime.

The contract under test (see ``repro.parallel.runtime``): the
rank-decomposed mat-vec — in-process or across a real fork +
shared-memory worker pool — reproduces the monolithic operator
*bitwise* in double precision (canonical accumulation order plus
padded face-batch subsets), within tolerance in single precision
(BLAS sgemm row-blocking rounds subsets differently), and its ghost
exchange reproduces the :class:`~repro.parallel.SimulatedGhostExchange`
census exactly.

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
    DistributedDGLaplace,
    InProcessGhostRuntime,
    PartitionPlan,
    WorkerPool,
)
from repro.parallel.runtime import DistributedSolverContext
from repro.solvers import HybridMultigridPreconditioner, conjugate_gradient
from repro.solvers.multigrid import operator_to_dtype
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


class TestCensusParity:
    """Real ghost exchange == simulated ghost exchange, message for
    message."""

    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 7])
    def test_box_census_matches_simulated(self, n_ranks, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        x = rng.standard_normal(op.n_dofs)
        _, sim_census = DistributedDGLaplace(op, n_ranks).vmult(x)
        real_census = PartitionPlan(op, n_ranks).census()
        assert real_census.n_messages == sim_census.n_messages
        assert real_census.n_sheets == sim_census.n_sheets
        assert real_census.bytes_total == sim_census.bytes_total
        assert real_census.pairs == sim_census.pairs

    def test_randomized_partitions_census(self, rng):
        for _ in range(6):
            op = random_space(rng)
            n_ranks = int(rng.integers(2, 5))
            x = rng.standard_normal(op.n_dofs)
            _, sim = DistributedDGLaplace(op, n_ranks).vmult(x)
            real = PartitionPlan(op, n_ranks).census()
            assert real.n_messages == sim.n_messages
            assert real.n_sheets == sim.n_sheets
            assert real.bytes_total == sim.bytes_total
            assert real.pairs == sim.pairs

    def test_weighted_partition_census(self, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        weights = rng.uniform(0.5, 2.0, size=forest.n_cells)
        x = rng.standard_normal(op.n_dofs)
        _, sim = DistributedDGLaplace(op, 3, weights=weights).vmult(x)
        real = PartitionPlan(op, 3, weights=weights).census()
        assert real.pairs == sim.pairs
        assert real.bytes_total == sim.bytes_total

    def test_fp32_census_counts_four_byte_items(self, rng):
        """Census bytes follow the operator's dtype exactly as the shipped
        payload does: a float32 clone reports half the float64 bytes, in
        the simulated and in the real exchange."""
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        op32 = operator_to_dtype(op, np.float32)
        x = rng.standard_normal(op.n_dofs)
        _, sim64 = DistributedDGLaplace(op, 3).vmult(x)
        _, sim32 = DistributedDGLaplace(op32, 3).vmult(x.astype(np.float32))
        real64, real32 = PartitionPlan(op, 3), PartitionPlan(op32, 3)
        assert real64.census().bytes_total == sim64.bytes_total
        assert real32.census().bytes_total == sim32.bytes_total
        assert 2 * sim32.bytes_total == sim64.bytes_total
        assert 2 * real32.payload_bytes() == real64.payload_bytes()


class TestInProcessBitwise:
    """The rank-decomposed mat-vec with the full pack/post/interior/
    wait/cut protocol, run sequentially in one process: the bitwise
    oracle the worker pool is then compared against."""

    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 7])
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
        with pool:
            pool.enable_worker_metrics()
            pool.vmult("op", x)
            merged = pool.collect_worker_metrics()
        by_name = {m["name"]: m for m in merged["metrics"]}
        vm = by_name["repro_parallel_worker_vmults_total"]
        # the associative merge sums both workers' shares of the round
        assert sum(s["value"] for s in vm["samples"]) == 2.0
        phases = by_name["repro_parallel_worker_phase_seconds_total"]
        seen = {s["labels"][0] for s in phases["samples"]}
        assert {"pack", "interior", "wait", "cut",
                "accumulate"} <= seen
