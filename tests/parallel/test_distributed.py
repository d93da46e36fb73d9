"""Tests of the rank-decomposed mat-vec on the in-process executor: the
ghost exchange of :class:`~repro.parallel.PartitionPlan` must reproduce
the monolithic operator bit for bit, with the nearest-neighbor message
census."""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel import InProcessGhostRuntime


def make_op(forest, degree=2, dirichlet=(1,)):
    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return DGLaplaceOperator(dof, geo, conn, dirichlet_ids=dirichlet)


class TestDistributedMatvec:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 7])
    def test_matches_monolithic_on_box(self, n_ranks, rng):
        forest = Forest(box(subdivisions=(4, 2, 1), boundary_ids={0: 1}))
        op = make_op(forest)
        rt = InProcessGhostRuntime(op, n_ranks)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))
        census = rt.plan.census()
        if n_ranks > 1:
            assert census.n_messages > 0
            # two trace sheets of (k+1)^2 values per cut face and direction
            sheet = 2 * op.kern.n_dofs_1d ** 2 * np.dtype(op.dtype).itemsize
            assert census.bytes_total == census.n_sheets * sheet

    def test_matches_on_hanging_node_mesh(self, rng):
        f = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1}))
        f = f.refine([f.leaves[0]]).balance()
        op = make_op(f, degree=3)
        rt = InProcessGhostRuntime(op, 3)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))
        assert rt.plan.census().n_sheets > 0

    def test_matches_on_bifurcation_with_orientations(self, rng):
        forest = Forest(bifurcation())
        op = make_op(forest, degree=2, dirichlet=(1, 2, 3))
        rt = InProcessGhostRuntime(op, 4)
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))

    def test_single_rank_exchanges_nothing(self):
        forest = Forest(box(subdivisions=(3, 1, 1)))
        op = make_op(forest, dirichlet=())
        rt = InProcessGhostRuntime(op, 1)
        x = np.ones(op.n_dofs)
        assert np.array_equal(rt.vmult(x), op.vmult(x))
        census = rt.plan.census()
        assert census.n_messages == 0
        assert census.bytes_total == 0

    def test_message_count_matches_partition_pairs(self):
        forest = Forest(box(subdivisions=(4, 1, 1)))
        op = make_op(forest, dirichlet=())
        rt = InProcessGhostRuntime(op, 4)
        # a 1D chain of 4 ranks: 3 neighbor pairs, both directions
        assert rt.plan.census().n_messages == 6
