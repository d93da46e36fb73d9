"""The flow operators' metric, stored and applied by its sparsity.

Every cell-term metric product of the flow operators runs through
:func:`repro.mesh.mapping.to_physical` / :func:`~repro.mesh.mapping.to_reference`
over the stored entries of ``CellMetrics.jinv_t`` — 3 diagonal planes on
an axis-aligned mesh, all 9 otherwise.  The reference below is the
``np.einsum`` spelling on the full 9-entry ``J^{-T}`` these sites used
before, kept as test-local code; an operator's face term is the same
code on both sides (the operator run with a zero ``jinv_t``), so the
comparison isolates the metric.  Bounds: 1e-14 relative in fp64, 1e-6
in fp32; ``E = 1`` equals the flat result bit for bit.  A guard checks
that a warm time step calls no ``np.einsum`` and hands the integration
sweeps only C-contiguous coefficient blocks.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.sum_factorization import TensorProductKernel
from repro.lung.simulation import LungVentilationSimulation
from repro.mesh import mapping
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import (
    GeometryField,
    isotropic_to_reference,
    normal_dot,
    to_physical,
    to_reference,
    trace,
)
from repro.mesh.octree import Forest
from repro.ns import (
    BeltramiFlow,
    BoundaryConditions,
    IncompressibleNavierStokesSolver,
    PressureDirichlet,
    SolverSettings,
    VelocityDirichlet,
)
from repro.ns.postprocess import FlowDiagnostics
from repro.ns.scalar_transport import ScalarAdvectionOperator
from repro.robustness.config import RunConfig
from repro.solvers.multigrid import operator_to_dtype
from repro.timeint.bdf import bdf_coefficients

from ..conftest import curved_hanging_forest, dense_jinv_t, rotated_hanging_forest

RTOL = {np.float64: 1e-14, np.float32: 1e-6}

FLOW = BeltramiFlow(0.1)


def _close(a, b, dtype=np.float64):
    assert a.shape == b.shape and a.dtype == b.dtype == dtype
    err = np.abs(a - b).max() / np.abs(b).max()
    assert err <= RTOL[dtype], err


# -- the meshes ------------------------------------------------------------

def _beltrami_box() -> Forest:
    return Forest(box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})).refine_all(2)


def _solver(forest, degree):
    """Velocity data on id 1 (and unlisted walls), a pressure outlet on
    the largest other id."""
    ids = sorted({b.boundary_id for b in build_connectivity(forest).boundary} - {1})
    bcs = BoundaryConditions({1: VelocityDirichlet(FLOW.velocity)})
    if ids:
        bcs.set(ids[-1], PressureDirichlet(lambda x, y, z, t: np.sin(x + 2 * y) * np.cos(z)))
    return IncompressibleNavierStokesSolver(forest, degree, 0.1, bcs,
                                            SolverSettings(solver_tolerance=1e-8))


def _full_jinv_t(forest, degree, n_q_points=None):
    """The 9-entry ``J^{-T}`` (no entry dropped as roundoff), ``(3, 3, ...)``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mapping, "METRIC_ROUNDOFF", 0.0)
        jinv_t = GeometryField(forest, degree, n_q_points).cell_metrics().jinv_t
    assert len(jinv_t) == 9
    return dense_jinv_t(jinv_t)


def _build(kind):
    if kind == "lung":
        sim = LungVentilationSimulation(RunConfig(generations=2, degree=2, seed=0))
        sim.close()
        return sim.solver, 9
    if kind == "beltrami":
        return _solver(_beltrami_box(), 3), 3
    if kind == "beltrami_full":
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mapping, "METRIC_ROUNDOFF", 0.0)
            return _solver(_beltrami_box(), 3), 9
    rng = np.random.default_rng(11)
    make = rotated_hanging_forest if kind == "rotated_hanging_box" else curved_hanging_forest
    forest = make(rng)
    conn = build_connectivity(forest)
    assert any(b.subface is not None for b in conn.interior)
    assert any(not b.orientation.is_identity for b in conn.interior)
    return _solver(forest, 2), 9


@pytest.fixture(scope="module", params=["beltrami", "beltrami_full", "rotated_hanging_box",
                                        "curved_hanging", "lung"])
def case(request):
    """``(solver, J_u, J_over, fields)``: the full ``J^{-T}`` of the
    velocity and over-integration geometries, and random fields."""
    solver, planes = _build(request.param)
    forest, k = solver.forest, solver.dof_u.degree
    for geo in (solver.geo_u, solver.geo_over):
        assert len(geo.cell_metrics().jinv_t) == planes
    rng = np.random.default_rng(5)
    fields = {"u": rng.standard_normal(solver.dof_u.n_dofs),
              "u2": rng.standard_normal(solver.dof_u.n_dofs),
              "p": rng.standard_normal(solver.dof_p.n_dofs),
              "c": rng.standard_normal(forest.n_cells * (k + 1) ** 3)}
    solver.penalty.update_parameters(rng.standard_normal(solver.dof_u.n_dofs))
    assert solver.penalty.tau_div.min() > 0
    return solver, _full_jinv_t(forest, k), _full_jinv_t(forest, k, k + 2), fields


# -- the reference: the einsum spelling on the full J^{-T} ------------------

def _einsum(subscripts, *operands):
    return np.einsum(subscripts, *operands, order="C")


def _face_only(op, dtype=np.float64):
    """``op`` (cast to ``dtype``) with a zero cell metric: its face term."""
    clone = copy.copy(operator_to_dtype(op, dtype))
    clone.jinv_t = np.zeros_like(clone.jinv_t)
    return clone


def ref_divergence(op, J, u, dtype, **kw):
    uq = op.kern_u.values(op.dof_u.lanes(u))
    rg = _einsum("ilzyxc,...izyxc->l...zyxc", J, uq)
    rg *= -op.jxw.astype(dtype)
    cell = op.kern_p.integrate_gradients_cm(rg)
    return _face_only(op, dtype).apply(u, 0.3, **kw) + cell.reshape(u.shape[:-1] + (-1,))


def ref_gradient(op, J, p, dtype):
    coeff = -(op.kern_p.values(op.dof_p.lanes(p)) * op.jxw.astype(dtype))
    cell = op.kern_u.integrate_gradients_cm(_einsum("ilzyxc,...zyxc->l...izyxc", J, coeff))
    return _face_only(op, dtype).apply(p, 0.3) + cell.reshape(p.shape[:-1] + (-1,))


def ref_convective(op, J, u, dtype):
    uq = op.kern.values(op.dof.lanes(u))
    Fu = _einsum("...izyxc,...jzyxc->...ijzyxc", uq, uq)
    rg = _einsum("...ijzyxc,jlzyxc->l...izyxc", Fu, J)
    rg *= -op.jxw.astype(dtype)
    cell = op.kern.integrate_gradients_cm(rg)
    return _face_only(op, dtype).apply(u, 0.3) + cell.reshape(u.shape)


def ref_penalty(op, J, u, dtype):
    grads = np.swapaxes(op.kern.gradients_cm(op.dof.lanes(u)), 0, -5)  # ROADMAP 1(A)
    div = _einsum("ilzyxc,l...izyxc->...zyxc", J, grads)
    coeff = div * op.jxw.astype(dtype) * op.tau_div.astype(dtype)[..., None, None, None, :]
    cell = op.kern.integrate_gradients_cm(_einsum("ilzyxc,...zyxc->l...izyxc", J, coeff))
    return _face_only(op, dtype).vmult(u) + cell.reshape(u.shape)


def ref_max_reference_velocity(op, J, u):
    uq = op.kern.values(op.dof.lanes(u))
    uref = _einsum("ilzyxc,...izyxc->...lzyxc", J, uq)
    return np.sqrt((uref**2).sum(axis=-5)).reshape(u.shape[:-1] + (-1,)).max(axis=-1)


def ref_gradient_field(kern, dof, J, u):
    """``G[..., i, l] = du_i/dx_l`` at the quadrature points."""
    return _einsum("lmzyxc,m...izyxc->...ilzyxc", J, kern.gradients_cm(dof.lanes(u)))


def ref_curl(G, n_point_axes):
    """curl from ``G[..., i, l, <points>]``."""
    pts = (slice(None),) * n_point_axes

    def d(i, l):
        return G[(..., i, l) + pts]

    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)],
                    axis=-1 - n_point_axes)


def ref_vorticity(s, J, u):
    kern, cm = s.geo_u.kernel, s.geo_u.cell_metrics()
    G = ref_gradient_field(kern, s.dof_u, J, u)
    return s.inv_mass_u.vmult(kern.integrate_values(ref_curl(G, 4) * cm.jxw).reshape(u.shape))


def ref_pressure_neumann_rhs(s, J, t_new, u_history, t_history, coeffs, dt):
    wall, ploop, fd = s._wall_loop, s.divergence.loop_p, s.divergence.face_data
    wall_jinv_t = s._wall_jinv_t.reshape((3, 3) + s._wall_jinv_t.shape[1:])
    lead = np.shape(u_history[0])[:-1]
    ids = s.velocity_dirichlet

    def g_at(t):
        return wall.boundary_data(fd.points, {
            bid: (lambda x, y, z, _bc=s.bcs.get(bid): _bc.g(x, y, z, t)) for bid in ids}, comps=1)

    total = coeffs.gamma0 * g_at(t_new)
    for alpha, t_i in zip(coeffs.alpha, t_history):
        total = total - alpha * g_at(t_i)
    total = total / dt
    total = np.array(np.broadcast_to(total, lead + total.shape[-3:])).reshape(
        (-1,) + total.shape[-3:])
    beta = coeffs.beta[:len(u_history)]
    omega = ref_vorticity(s, J, sum(b * u for b, u in zip(beta, u_history)))
    for weight, field in [*zip(beta, u_history), (None, omega)]:
        src = np.empty((3 * total.shape[0], wall.size), field.dtype)
        ul = s.dof_u.lanes(field)
        wall.sheets(ul.reshape((-1,) + ul.shape[-4:]), src)
        for ch in wall.chunks:
            b = slice(ch.b0, ch.b0 + ch.F - ch.Fi)
            Q = wall.trace(src, ch, slice(ch.Fi, ch.F), full=True)
            Q = Q.reshape((-1, 3) + Q.shape[1:])
            grad = _einsum("lfrq,eifrq->eilrq", wall_jinv_t[:, :, b], Q[:, :, 1:])
            if weight is None:
                total[..., b, :] += s.nu * ref_curl(grad, 2)
                continue
            v = Q[:, :, 0]
            conv = _einsum("ejrq,eijrq->eirq", v, grad)
            total[..., b, :] += weight * (conv + _einsum("eiirq->erq", grad)[:, None] * v)
    h = -_einsum("iBq,eiBq->eBq", fd.normal[:, wall.bface], total)
    h *= fd.jxw[wall.bface] * np.isin(wall.bids, ids)[:, None]
    dst = np.zeros((h.shape[0], ploop.size))
    for ch in ploop.chunks:
        ploop.integrate(h[:, ch.b0:ch.b0 + ch.F - ch.Fi], ch, dst, slice(ch.Fi, ch.F))
    out = np.zeros((h.shape[0],) + (s.dof_p.n1,) * 3 + (s.dof_p.n_cells,))
    ploop.expand(dst, out)
    return out.reshape(lead + (-1,))


# -- the battery -----------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestOperatorsAgainstFullMetric:
    def test_divergence(self, case, dtype):
        s, J, _, f = case
        op, u = operator_to_dtype(s.divergence, dtype), f["u"].astype(dtype)
        J = J.astype(dtype)
        _close(op.apply(u, 0.3), ref_divergence(s.divergence, J, u, dtype), dtype)
        _close(op.apply(u, 0.3, interior_trace_everywhere=True),
               ref_divergence(s.divergence, J, u, dtype, interior_trace_everywhere=True), dtype)
        _close(op.vmult(u), ref_divergence(s.divergence, J, u, dtype, homogeneous=True), dtype)

    def test_gradient(self, case, dtype):
        s, J, _, f = case
        op, p = operator_to_dtype(s.gradient, dtype), f["p"].astype(dtype)
        _close(op.apply(p, 0.3), ref_gradient(s.gradient, J.astype(dtype), p, dtype), dtype)

    def test_convective(self, case, dtype):
        s, _, J_over, f = case
        op, u = operator_to_dtype(s.convective, dtype), f["u"].astype(dtype)
        J_over = J_over.astype(dtype)
        _close(op.apply(u, 0.3), ref_convective(s.convective, J_over, u, dtype), dtype)
        speed = np.asarray(op.max_reference_velocity(u))
        _close(speed, np.asarray(ref_max_reference_velocity(op, J_over, u)), dtype)

    def test_penalty(self, case, dtype):
        s, J, _, f = case
        op, u = operator_to_dtype(s.penalty, dtype), f["u"].astype(dtype)
        _close(op.vmult(u), ref_penalty(s.penalty, J.astype(dtype), u, dtype), dtype)


class TestSolverSitesAgainstFullMetric:
    def test_vorticity(self, case):
        s, J, _, f = case
        _close(s.compute_vorticity(f["u"]), ref_vorticity(s, J, f["u"]))

    def test_divergence_field(self, case):
        s, J, _, f = case
        s.initialize(f["u"])
        g = s.geo_u.kernel.gradients_cm(s.dof_u.lanes(f["u"]))
        _close(s._divergence_field(), _einsum("ilzyxc,l...izyxc->...zyxc", J, g))

    def test_pressure_neumann_rhs(self, case):
        s, J, _, f = case
        if not s.velocity_dirichlet:
            pytest.skip("no velocity-Dirichlet wall")
        coeffs, hist = bdf_coefficients(2, [0.01, 0.01]), [f["u"], f["u2"]]
        args = (0.3, hist, [0.29, 0.28], coeffs, 0.01)
        _close(s._pressure_neumann_rhs(*args), ref_pressure_neumann_rhs(s, J, *args))

    def test_scalar_transport(self, case):
        s, J, _, f = case
        dof_c = DGDofHandler(s.forest, s.dof_u.degree)
        op = ScalarAdvectionOperator(dof_c, s.dof_u, s.geo_u, s.conn, {1: 0.21})
        face_only = copy.copy(op)
        face_only.cell_metrics = dataclasses.replace(
            op.cell_metrics, jinv_t=np.zeros_like(op.cell_metrics.jinv_t))
        kern, cm = op.kern, op.cell_metrics
        cq, uq = kern.values(dof_c.lanes(f["c"])), kern.values(s.dof_u.lanes(f["u"]))
        rg = np.einsum("ilzyxc,izyxc,zyxc->lzyxc", J, uq, -(cq * cm.jxw), optimize="optimal")
        ref = face_only.apply(f["c"], f["u"]) + kern.integrate_gradients_cm(rg).reshape(-1)
        _close(op.apply(f["c"], f["u"]), ref)

    def test_postprocess_gradients(self, case):
        s, J, _, f = case
        diag = FlowDiagnostics(s.dof_u, s.geo_u)
        G = ref_gradient_field(s.geo_u.kernel, s.dof_u, J, f["u"])
        _close(np.swapaxes(diag._phys_gradients(f["u"]), 0, 1), G)
        div = _einsum("...iizyxc->...zyxc", G)
        assert np.isclose(diag.divergence_l2(f["u"]), np.sqrt((div**2 * diag.cm.jxw).sum()),
                          rtol=1e-14, atol=0)
        curl = ref_curl(G, 4)
        ens = 0.5 * ((curl**2).sum(axis=-5) * diag.cm.jxw).sum() / diag.volume()
        assert np.isclose(diag.enstrophy(f["u"]), ens, rtol=1e-14, atol=0)


class TestUnitEnsembleIsFlat:
    def test_operators_and_solver_sites(self, case):
        s, _, _, f = case
        u, p = f["u"], f["p"]
        for fn, x in [(s.divergence.apply, u), (s.gradient.apply, p), (s.convective.apply, u),
                      (s.convective.max_reference_velocity, u), (s.penalty.vmult, u),
                      (s.compute_vorticity, u)]:
            assert np.array_equal(fn(x[None])[0], fn(x))
        if s.velocity_dirichlet:
            coeffs = bdf_coefficients(2, [0.01, 0.01])
            flat = s._pressure_neumann_rhs(0.3, [u, f["u2"]], [0.29, 0.28], coeffs, 0.01)
            one = s._pressure_neumann_rhs(0.3, [u[None], f["u2"][None]], [0.29, 0.28],
                                          coeffs, 0.01)
            assert np.array_equal(one[0], flat)


# -- the helpers themselves --------------------------------------------------

@pytest.fixture(params=[3, 9], ids=["diagonal", "full"])
def jinv_t(request, rng):
    return rng.standard_normal((request.param, 2, 2, 2, 5))


class TestHelpers:
    def test_match_the_dense_matrix(self, jinv_t, rng):
        J = dense_jinv_t(jinv_t)
        g = rng.standard_normal((3, 4, 3, 2, 2, 2, 5))
        ref_phys = np.einsum("lmzyxc,m...zyxc->l...zyxc", J, g)
        ref_ref = np.einsum("mlzyxc,m...zyxc->l...zyxc", J, g)
        np.testing.assert_allclose(to_physical(jinv_t, g), ref_phys, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(to_reference(jinv_t, g), ref_ref, rtol=1e-14, atol=1e-14)
        s = rng.standard_normal((4, 2, 2, 2, 5))
        np.testing.assert_allclose(isotropic_to_reference(jinv_t, s),
                                   np.einsum("ilzyxc,...zyxc->l...izyxc", J, s),
                                   rtol=1e-14, atol=1e-14)
        G = rng.standard_normal((3, 4, 3, 2, 2, 2, 5))
        np.testing.assert_allclose(trace(G), np.einsum("iaizyxc->azyxc", G), rtol=1e-14)
        n, v = rng.standard_normal((3, 6, 4)), rng.standard_normal((2, 3, 3, 6, 4))
        np.testing.assert_allclose(normal_dot(n, v), np.einsum("ifq,...ifq->...fq", n, v),
                                   rtol=1e-14, atol=1e-14)

    def test_leading_axes_are_bitwise_flat(self, jinv_t, rng):
        """``...`` leading axes: every member is its flat call bit for bit,
        and the result is a C-contiguous component-major block."""
        g = rng.standard_normal((3, 2, 3, 2, 2, 2, 5))
        for fn in (to_physical, to_reference):
            out = fn(jinv_t, g)
            assert out.flags.c_contiguous and out.shape == g.shape
            for a, b in np.ndindex(2, 3):
                assert np.array_equal(out[:, a, b], fn(jinv_t, g[:, a, b]))
        s = rng.standard_normal((2, 2, 2, 2, 5))
        iso = isotropic_to_reference(jinv_t, s)
        assert iso.flags.c_contiguous and iso.shape == (3, 2, 3, 2, 2, 2, 5)
        for a in range(2):
            assert np.array_equal(iso[:, a], isotropic_to_reference(jinv_t, s[a]))
        n, v = rng.standard_normal((3, 6, 4)), rng.standard_normal((2, 3, 6, 4))
        for a in range(2):
            assert np.array_equal(normal_dot(n, v)[a], normal_dot(n, v[a]))

    def test_float32_stays_float32(self, jinv_t, rng):
        g = rng.standard_normal((3, 2, 2, 2, 5)).astype(np.float32)
        assert to_physical(jinv_t.astype(np.float32), g).dtype == np.float32
        assert to_reference(jinv_t.astype(np.float32), g).dtype == np.float32


# -- the warm-step guard -------------------------------------------------------

def _beltrami_step_solver():
    forest = _beltrami_box()
    s = IncompressibleNavierStokesSolver(
        forest, 3, 0.1, BoundaryConditions({1: VelocityDirichlet(FLOW.velocity)}),
        SolverSettings(solver_tolerance=1e-8))
    s.initialize(FLOW.velocity)
    return s.step, 0.01


def _lung_step():
    sim = LungVentilationSimulation(RunConfig(generations=2, degree=2, seed=0))
    sim.step(1e-5)
    return sim.step, None


@pytest.mark.parametrize("make", [_beltrami_step_solver, _lung_step], ids=["beltrami", "lung"])
def test_warm_step_calls_no_einsum_and_integrates_contiguous_blocks(make, monkeypatch):
    """A warm step runs no ``np.einsum``, and every coefficient block
    reaching ``integrate_gradients_cm`` is C-contiguous (a strided one
    would silently take the copying fallback of ``apply_1d``)."""
    step, dt = make()
    step(dt)
    einsums, blocks = [], []
    real_einsum, real_integrate = np.einsum, TensorProductKernel.integrate_gradients_cm

    def counting_einsum(*args, **kwargs):
        einsums.append(args[0])
        return real_einsum(*args, **kwargs)

    def recording_integrate(self, q, *args, **kwargs):
        blocks.append(q.flags.c_contiguous)
        return real_integrate(self, q, *args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(TensorProductKernel, "integrate_gradients_cm", recording_integrate)
    step(dt)
    assert einsums == []
    assert blocks and all(blocks)
