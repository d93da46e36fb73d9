"""Tests of the ensemble leading axis through the matrix-free operator
stack: E=1 must ride the unbatched bitstream exactly, and E>1 members
must be independent (each row of a batched apply equals the same flat
apply), at both compute precisions."""

import contextlib

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import (
    ConvectiveOperator,
    DGLaplaceOperator,
    DivergenceContinuityPenalty,
    DivergenceOperator,
    GradientOperator,
    VectorDGLaplace,
)
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box, cylinder
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns import (
    BeltramiFlow,
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    PressureDirichlet,
    SolverSettings,
    VelocityDirichlet,
)
from repro.solvers.multigrid import operator_to_dtype


@pytest.fixture(scope="module")
def solver():
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(1)
    flow = BeltramiFlow(0.05)
    bcs = BoundaryConditions(
        {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
    )
    s = IncompressibleNavierStokesSolver(
        forest, 2, 0.05, bcs, SolverSettings(solver_tolerance=1e-8)
    )
    s.initialize(flow.velocity)
    return s


def _ops(solver):
    """(name, operator, input size) for every linear vmult in the stack."""
    return [
        ("mass", solver.mass_u, solver.dof_u.n_dofs),
        ("inverse_mass", solver.inv_mass_u, solver.dof_u.n_dofs),
        ("vector_laplace", solver.vector_laplace, solver.dof_u.n_dofs),
        ("helmholtz", solver.helmholtz, solver.dof_u.n_dofs),
        ("penalty", solver.penalty, solver.dof_u.n_dofs),
        ("penalty_step", solver.penalty_step, solver.dof_u.n_dofs),
        ("divergence", solver.divergence, solver.dof_u.n_dofs),
        ("gradient", solver.gradient, solver.dof_p.n_dofs),
        ("pressure_poisson", solver.pressure_poisson, solver.dof_p.n_dofs),
    ]


def _fresh_penalty(solver):
    """A penalty operator of its own (``update_parameters`` mutates tau,
    and the module-scoped solver is shared)."""
    return DivergenceContinuityPenalty(solver.dof_u, solver.geo_u, solver.conn)


@contextlib.contextmanager
def _velocity_state(solver, u):
    """Temporarily install ``u`` as the solver's current velocity."""
    history = solver.scheme.u_history
    saved, history[0] = history[0], u
    try:
        yield
    finally:
        history[0] = saved


def _assert_members(batched, solo, rtol, label=""):
    """``batched[e]`` matches ``solo(e)`` for every member."""
    for e in range(len(batched)):
        ref = np.asarray(solo(e))
        scale = max(np.abs(ref).max(), 1e-30)
        np.testing.assert_allclose(
            batched[e], ref, rtol=rtol, atol=rtol * scale,
            err_msg=f"{label} member {e}",
        )


class TestE1Bitwise:
    """A single-member batch reproduces the flat bitstream exactly."""

    def test_all_operators(self, solver):
        rng = np.random.default_rng(0)
        for name, op, n in _ops(solver):
            x = rng.standard_normal(n)
            flat = op.vmult(x)
            batched = op.vmult(x[None])
            assert batched.shape == (1,) + flat.shape, name
            assert np.array_equal(batched[0], flat), name

    def test_convective_apply(self, solver):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(solver.dof_u.n_dofs)
        flat = solver.convective.apply(u, t=0.1)
        batched = solver.convective.apply(u[None], t=0.1)
        assert np.array_equal(batched[0], flat)

    def test_max_reference_velocity(self, solver):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(solver.dof_u.n_dofs)
        flat = solver.convective.max_reference_velocity(u)
        batched = solver.convective.max_reference_velocity(u[None])
        assert batched.shape == (1,)
        assert batched[0] == flat

    def test_flow_rate_and_divergence(self, solver):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(solver.dof_u.n_dofs)
        assert solver._flow_rate_of(u[None], 1)[0] == \
            solver._flow_rate_of(u, 1)
        with _velocity_state(solver, u):
            flat = solver._divergence_field()
        with _velocity_state(solver, u[None]):
            batched = solver._divergence_field()
        assert batched.shape == (1,) + flat.shape
        assert np.array_equal(batched[0], flat)

    def test_penalty_with_updated_parameters(self, solver, rng):
        """tau != 0 (the shared solver's penalty still carries its
        initial zeros, so ``test_all_operators`` sees a null operator)."""
        u, x = rng.standard_normal((2, solver.dof_u.n_dofs))
        flat_op, batched_op = _fresh_penalty(solver), _fresh_penalty(solver)
        flat_op.update_parameters(u)
        batched_op.update_parameters(u[None])
        assert flat_op.tau_div.min() > 0.0
        # tau has shape lead + (N,): the CG iterates on (1, n) vectors,
        # so a single member's tau keeps its member axis
        assert np.array_equal(batched_op.tau_div, flat_op.tau_div[None])
        assert np.array_equal(batched_op.tau_cont, flat_op.tau_cont[None])
        flat = flat_op.vmult(x)
        assert np.abs(flat).max() > 0.0
        assert np.array_equal(batched_op.vmult(x[None]), flat[None])

    def test_stacked_dirichlet_data(self, solver, rng):
        """(1, 3, F, a, b) boundary data rides the same bitstream as the
        unbatched (3, F, a, b) form."""
        flow = BeltramiFlow(0.05)
        stacked = BoundaryConditions({1: VelocityDirichlet(
            lambda x, y, z, t: np.asarray(flow.velocity(x, y, z, t))[None])})
        s = solver
        u = rng.standard_normal(s.dof_u.n_dofs)
        for make in (
            lambda bcs: ConvectiveOperator(s.dof_u, s.geo_over, s.conn, bcs),
            lambda bcs: DivergenceOperator(s.dof_u, s.dof_p, s.geo_u, s.conn, bcs),
        ):
            flat = make(s.bcs).apply(u, 0.1)
            assert np.array_equal(make(stacked).apply(u[None], 0.1)[0], flat)


class TestMemberIndependence:
    """Rows of a batched apply match the same member applied flat: no
    cross-member coupling anywhere in the stack."""

    E = 3

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_all_operators(self, solver, dtype):
        rng = np.random.default_rng(4)
        rtol = 1e-12 if dtype == "float64" else 1e-4
        for name, op, n in _ops(solver):
            opd = operator_to_dtype(op, dtype)
            X = rng.standard_normal((self.E, n)).astype(dtype)
            _assert_members(
                opd.vmult(X), lambda e: opd.vmult(X[e]), rtol, f"{name} @ {dtype}")

    def test_convective_members(self, solver):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((self.E, solver.dof_u.n_dofs))
        _assert_members(
            solver.convective.apply(U, t=0.0),
            lambda e: solver.convective.apply(U[e], t=0.0), 1e-12, "convective")

    def test_permuting_members_permutes_results(self, solver):
        rng = np.random.default_rng(6)
        perm = [2, 0, 1]
        for name, op, n in _ops(solver):
            X = rng.standard_normal((self.E, n))
            y = op.vmult(X)
            np.testing.assert_allclose(
                op.vmult(X[perm]), y[perm], rtol=1e-13,
                atol=1e-13 * max(np.abs(y).max(), 1e-30), err_msg=name,
            )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_penalty_with_per_member_parameters(self, solver, dtype, rng):
        """Per-member tau fields (E, N) / (E, F) from a stacked
        ``update_parameters`` act member by member."""
        rtol = 1e-12 if dtype == "float64" else 1e-4
        U, X = rng.standard_normal((2, self.E, solver.dof_u.n_dofs)).astype(dtype)
        batched_op = operator_to_dtype(_fresh_penalty(solver), dtype)
        batched_op.update_parameters(U)

        def solo(e):
            op = operator_to_dtype(_fresh_penalty(solver), dtype)
            op.update_parameters(U[e])
            return op.vmult(X[e])

        _assert_members(batched_op.vmult(X), solo, rtol, f"penalty @ {dtype}")

    def test_cfl_flow_rate_and_divergence_members(self, solver, rng):
        U = rng.standard_normal((self.E, solver.dof_u.n_dofs))
        vmax = solver.convective.max_reference_velocity(U)
        assert vmax.shape == (self.E,)
        _assert_members(
            vmax, lambda e: solver.convective.max_reference_velocity(U[e]), 1e-12)
        rate = solver._flow_rate_of(U, 1)
        assert rate.shape == (self.E,)
        _assert_members(rate, lambda e: solver._flow_rate_of(U[e], 1), 1e-12)
        with _velocity_state(solver, U):
            div = solver._divergence_field()

        def solo_div(e):
            with _velocity_state(solver, U[e]):
                return solver._divergence_field()

        _assert_members(div, solo_div, 1e-12, "divergence field")

    def test_member_independent_equals_member_stacked_dirichlet(self, solver, rng):
        """Boundary data without a member axis broadcasts: same result
        as the same data stacked E times, and as each member's flat
        apply."""
        s, E = solver, self.E
        flow = BeltramiFlow(0.05)

        def g(x, y, z, t):
            return np.asarray(flow.velocity(x, y, z, t))

        def gp(x, y, z, t):
            return np.sin(x) * y + z + t

        shared_u = BoundaryConditions({1: VelocityDirichlet(g)})
        stacked_u = BoundaryConditions({1: VelocityDirichlet(
            lambda *a: np.stack([g(*a)] * E))})
        shared_p = BoundaryConditions({1: PressureDirichlet(gp)})
        stacked_p = BoundaryConditions({1: PressureDirichlet(
            lambda *a: np.stack([gp(*a)] * E))})
        cases = [
            (lambda b: ConvectiveOperator(s.dof_u, s.geo_over, s.conn, b),
             shared_u, stacked_u, s.dof_u.n_dofs),
            (lambda b: DivergenceOperator(s.dof_u, s.dof_p, s.geo_u, s.conn, b),
             shared_u, stacked_u, s.dof_u.n_dofs),
            (lambda b: GradientOperator(s.dof_u, s.dof_p, s.geo_u, s.conn, b),
             shared_p, stacked_p, s.dof_p.n_dofs),
        ]
        for make, shared, stacked, n in cases:
            X = rng.standard_normal((E, n))
            op = make(shared)
            y = op.apply(X, 0.2)
            label = type(op).__name__
            _assert_members(make(stacked).apply(X, 0.2), lambda e: y[e], 1e-13, label)
            _assert_members(y, lambda e: op.apply(X[e], 0.2), 1e-12, label)


class TestStackedBoundaryRhs:
    """Member-stacked ``(E, 3, F, a, b)`` wall data through the solver's
    boundary right-hand sides (viscous Nitsche data, consistent pressure
    Neumann data): each member equals its flat run, E=1 is bitwise."""

    SCALES = (1.0, -0.5)

    @staticmethod
    def _with_data(solver, g, fn):
        saved = solver.bcs
        solver.bcs = BoundaryConditions({1: VelocityDirichlet(g)})
        try:
            return fn()
        finally:
            solver.bcs = saved

    def _runs(self, solver, fn, scales, U):
        """``fn(*U)`` under stacked data of ``scales`` and each member's
        flat run ``fn(*U[:, e])``."""
        flow = BeltramiFlow(0.05)

        def member(c):
            return lambda x, y, z, t: c * np.asarray(flow.velocity(x, y, z, t))

        stacked = self._with_data(
            solver, lambda *a: np.stack([member(c)(*a) for c in scales]), lambda: fn(*U))
        flat = [self._with_data(solver, member(c), lambda: fn(*U[:, e]))
                for e, c in enumerate(scales)]
        return stacked, flat

    def _cases(self, solver, rng):
        from repro.timeint import bdf_coefficients

        coeffs = bdf_coefficients(2, [0.01, 0.01])
        return [
            lambda u0, u1: solver._viscous_boundary_rhs(0.1),
            lambda u0, u1: solver._pressure_neumann_rhs(
                0.1, [u0, u1], [0.09, 0.08], coeffs, 0.01),
        ], rng.standard_normal((2, len(self.SCALES), solver.dof_u.n_dofs))

    def test_members_equal_flat_runs(self, solver, rng):
        fns, U = self._cases(solver, rng)
        for fn in fns:
            stacked, flat = self._runs(solver, fn, self.SCALES, U)
            assert stacked.shape == (len(self.SCALES),) + flat[0].shape
            _assert_members(stacked, lambda e: flat[e], 1e-12)

    def test_e1_is_bitwise(self, solver, rng):
        fns, U = self._cases(solver, rng)
        for fn in fns:
            stacked, flat = self._runs(solver, fn, self.SCALES[:1], U[:, :1])
            assert np.array_equal(stacked, flat[0][None])


def _hanging_box():
    f = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
    return f.refine([f.leaves[0]]).balance()


def _tapered_cylinder():
    return Forest(cylinder(n_axial=2, smooth=True, taper_radius=0.8))


class TestStackedVectorLaplacian:
    """Components ride the scalar kernel's batch axis: one scalar
    mat-vec per vector mat-vec, equal to three scalar ones."""

    @pytest.fixture(params=[_tapered_cylinder, _hanging_box],
                    ids=["tapered_cylinder", "hanging_box"])
    def operators(self, request):
        forest = request.param()
        geo, conn = GeometryField(forest, 2), build_connectivity(forest)
        present = tuple({b.boundary_id for b in conn.boundary})
        scalar = DGLaplaceOperator(
            DGDofHandler(forest, 2), geo, conn, dirichlet_ids=present[:1])
        return scalar, VectorDGLaplace(scalar, DGDofHandler(forest, 2, n_components=3))

    def test_equals_three_scalar_matvecs(self, operators, rng):
        scalar, vector = operators
        x = rng.standard_normal(vector.n_dofs)
        u = vector.dof.lanes(x)
        y = vector.dof.lanes(vector.vmult(x))
        for c in range(3):
            ref = scalar.dof.lanes(scalar.vmult(u[c].reshape(-1)))
            np.testing.assert_allclose(
                y[c], ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    def test_one_scalar_vmult_per_application(self, operators, lead, rng,
                                              monkeypatch):
        scalar, vector = operators
        shapes = []
        raw = scalar.vmult
        monkeypatch.setattr(
            scalar, "vmult", lambda x: shapes.append(x.shape) or raw(x))
        x = rng.standard_normal(lead + (vector.n_dofs,))
        assert vector.vmult(x).shape == x.shape
        assert shapes == [(3 * int(np.prod(lead)), scalar.n_dofs)]


@pytest.fixture(scope="module")
def laplace_op():
    from repro.core.dof_handler import DGDofHandler
    from repro.core.operators import DGLaplaceOperator
    from repro.mesh.connectivity import build_connectivity
    from repro.mesh.mapping import GeometryField

    # two boundary face directions carry the Dirichlet id, so the
    # assembly sees more than one boundary batch
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1, 1: 1})
                    ).refine_all(1)
    geo = GeometryField(forest, 2)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, 2)
    return DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))


class TestEnsembleAssembleRhs:
    """Boundary callables returning (E, F, a, b) data drive an
    ensemble-stacked right-hand side; member-independent volume data is
    broadcast."""

    def test_member_rows_match_flat_assembly(self, laplace_op):
        op = laplace_op
        coeffs = (1.0, -0.5, 2.0)

        def stacked_dirichlet(x, y, z):
            return np.stack([c * x + 0.1 * y for c in coeffs])

        rhs = op.assemble_rhs(f=lambda x, y, z: x * y + z,
                              dirichlet=stacked_dirichlet)
        assert rhs.shape == (len(coeffs), op.n_dofs)
        for e, c in enumerate(coeffs):
            flat = op.assemble_rhs(
                f=lambda x, y, z: x * y + z,
                dirichlet=lambda x, y, z, _c=c: _c * x + 0.1 * y,
            )
            np.testing.assert_allclose(rhs[e], flat, rtol=1e-13,
                                       atol=1e-13 * np.abs(flat).max())

    def test_e1_stacked_boundary_data_is_bitwise(self, laplace_op):
        op = laplace_op
        rhs1 = op.assemble_rhs(
            dirichlet=lambda x, y, z: np.stack([2.0 * x - z]))
        flat = op.assemble_rhs(dirichlet=lambda x, y, z: 2.0 * x - z)
        assert rhs1.shape == (1, op.n_dofs)
        assert np.array_equal(rhs1[0], flat)

    def test_inconsistent_ensemble_sizes_rejected(self, laplace_op):
        """Each boundary callable runs once per id, so the mismatch is
        between the Dirichlet and the Neumann data."""
        op = laplace_op
        with pytest.raises(ValueError, match="inconsistent ensemble"):
            op.assemble_rhs(dirichlet=lambda x, y, z: np.stack([x] * 2),
                            neumann=lambda x, y, z: np.stack([x] * 3))
