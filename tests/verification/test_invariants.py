"""Property-based operator invariants on randomized curved meshes.

Each test draws a deformed mesh (tapered cylinder, randomized
bifurcation, or a hanging-node box) and random probe vectors from the
seeded per-test ``rng`` fixture, then asserts a structural identity of
the matrix-free operators.  A failure reproduces deterministically.
"""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import (
    DGLaplaceOperator,
    DivergenceContinuityPenalty,
    MassOperator,
)
from repro.core.operators.grad_div import DivergenceOperator, GradientOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation, box, cylinder
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns.bc import BoundaryConditions, VelocityDirichlet
from repro.verification import (
    InvariantViolation,
    check_adjoint,
    check_nullspace,
    check_positive_semidefinite,
    check_symmetry,
    random_curved_forest,
)

DEGREE = 2


@pytest.fixture
def space(rng):
    """A randomized curved mesh with its geometry/connectivity/DoF stack."""
    forest = random_curved_forest(rng)
    geo = GeometryField(forest, DEGREE)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, DEGREE)
    return forest, geo, conn, dof


class TestLaplaceInvariants:
    def test_sip_laplacian_is_symmetric(self, rng, space):
        _, geo, conn, dof = space
        op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
        check_symmetry(op, rng)

    def test_neumann_laplacian_annihilates_constants(self, rng, space):
        _, geo, conn, dof = space
        op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=())
        check_nullspace(op, np.ones(op.n_dofs), atol=1e-8)

    def test_dirichlet_laplacian_keeps_constants(self, rng, space):
        # with a Dirichlet boundary the constant mode must NOT be in the
        # null space — the boundary penalty sees it
        _, geo, conn, dof = space
        op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
        with pytest.raises(InvariantViolation):
            check_nullspace(op, np.ones(op.n_dofs), atol=1e-8)

    def test_sip_laplacian_positive_semidefinite(self, rng, space):
        _, geo, conn, dof = space
        op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
        check_positive_semidefinite(op, rng, tol=1e-9)


class TestMassInvariants:
    def test_mass_symmetric_and_spd(self, rng, space):
        _, geo, _, dof = space
        op = MassOperator(dof, geo)
        check_symmetry(op, rng)
        check_positive_semidefinite(op, rng, tol=0.0)


class TestMixedSpaceInvariants:
    @pytest.fixture
    def mixed(self, space):
        forest, geo, conn, _ = space
        dof_u = DGDofHandler(forest, DEGREE, n_components=3)
        dof_p = DGDofHandler(forest, DEGREE - 1)
        present = {b.boundary_id for b in conn.boundary}
        bcs = BoundaryConditions(
            {bid: VelocityDirichlet.no_slip() for bid in present}
        )
        div = DivergenceOperator(dof_u, dof_p, geo, conn, bcs)
        grad = GradientOperator(dof_u, dof_p, geo, conn, bcs)
        return dof_u, dof_p, div, grad

    def test_divergence_is_negative_gradient_transpose(self, rng, mixed):
        dof_u, dof_p, div, grad = mixed
        check_adjoint(
            div.vmult, grad.vmult, dof_u.n_dofs, dof_p.n_dofs, rng,
            sign=-1.0, label="div vs grad",
        )


def _tapered_cylinder() -> Forest:
    return Forest(cylinder(n_axial=2, smooth=True, taper_radius=0.8))


def _bifurcation_60() -> Forest:
    return Forest(bifurcation(opening_angle_deg=60.0))


def _hanging_box() -> Forest:
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1, 1: 2}))
    return forest.refine([forest.leaves[0]]).balance()


#: the penalty's trial-side gradient is transposed (penalty.py, the
#: marked ``np.swapaxes``), which only a non-diagonal Jacobian exposes;
#: strict, so removing the transposition without this marker turns red
_ROADMAP_1A = pytest.mark.xfail(
    strict=True, raises=InvariantViolation, reason="ROADMAP 1(A)"
)


class TestPenaltyInvariants:
    def test_penalty_symmetric_positive_semidefinite(self, rng, space):
        # the drawn mesh kind is fixed by the test id's seed: this one
        # gets the Cartesian box (see the parametrized test below)
        forest, geo, conn, _ = space
        dof_u = DGDofHandler(forest, DEGREE, n_components=3)
        pen = DivergenceContinuityPenalty(dof_u, geo, conn)
        pen.update_parameters(rng.standard_normal(dof_u.n_dofs))
        check_symmetry(pen, rng, rtol=1e-8)
        check_positive_semidefinite(pen, rng, tol=1e-10)

    @pytest.mark.parametrize("make_forest", [
        pytest.param(_tapered_cylinder, id="tapered_cylinder", marks=_ROADMAP_1A),
        pytest.param(_bifurcation_60, id="bifurcation_60", marks=_ROADMAP_1A),
        pytest.param(_hanging_box, id="hanging_box"),
    ])
    def test_penalty_symmetric_psd_on_every_mesh_kind(self, rng, make_forest):
        """Mesh kind parametrized, not drawn, and tau != 0: the curved
        kinds cannot be skipped by an unlucky seed."""
        forest = make_forest()
        dof_u = DGDofHandler(forest, DEGREE, n_components=3)
        pen = DivergenceContinuityPenalty(
            dof_u, GeometryField(forest, DEGREE), build_connectivity(forest)
        )
        pen.update_parameters(rng.standard_normal(dof_u.n_dofs))
        assert pen.tau_div.min() > 0.0
        check_symmetry(pen, rng, rtol=1e-8)
        check_positive_semidefinite(pen, rng, tol=1e-10)


class TestHarnessCatchesViolations:
    """The checks themselves must fail on operators that break the
    identity — otherwise the suite only proves it can pass."""

    class _Asymmetric:
        n_dofs = 8

        def vmult(self, x):
            out = np.roll(x, 1)
            out[0] += 0.5 * x[0]
            return out

    class _Indefinite:
        n_dofs = 8

        def vmult(self, x):
            return -x

    def test_symmetry_check_rejects_asymmetric(self, rng):
        with pytest.raises(InvariantViolation, match="symmetry"):
            check_symmetry(self._Asymmetric(), rng)

    def test_psd_check_rejects_indefinite(self, rng):
        with pytest.raises(InvariantViolation, match="Rayleigh"):
            check_positive_semidefinite(self._Indefinite(), rng)
