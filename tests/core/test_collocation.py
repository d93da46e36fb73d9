"""Exactness of the one cell-kernel path: three interpolation sweeps to
the Gauss points, then one collocation-derivative sweep per direction
(and its transpose), against direct Lagrange evaluation — on lane
blocks, the cells on the trailing axis — and the guard that every sweep
the operators run is one GEMM stack at least ``n_cells`` wide."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.sum_factorization as sf
from repro.core.basis import LagrangeBasis1D
from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import (
    CGLaplaceOperator, ConvectiveOperator, DivergenceContinuityPenalty, InverseMassOperator,
    MassOperator,
)
from repro.core.operators.laplace import cell_laplacian
from repro.core.plans import Workspace
from repro.core.quadrature import gauss
from repro.core.sum_factorization import TensorProductKernel
from repro.mesh.mapping import GeometryField
from repro.ns.bc import BoundaryConditions
from repro.perf.flops import laplace_flops

#: (degree, n_q) of every kernel shape the solver runs: the standard
#: k+1 points, and k+2 points — the over-integrated convective kernel,
#: and the pressure space (degree k-1) on the velocity's k+1 points
KERNELS = [(k, k + 1) for k in (1, 2, 3, 4)] + [(k, k + 2) for k in (1, 2, 3, 4)]

DTYPES = [(np.float64, 1e-12), (np.float32, 2e-6)]


def _direct(kern, u):
    """Values and reference gradients ``(4, q, q, q, c)`` by evaluating
    every 1D Lagrange polynomial at the Gauss points (no sweeps)."""
    basis = LagrangeBasis1D(kern.degree)
    x = gauss(kern.n_q_points).points
    L, D = basis.values(x), basis.derivatives(x)
    return np.stack([
        np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, L, L, L),
        np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, L, L, D),
        np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, L, D, L),
        np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, D, L, L),
    ])


def _cell_data(k, seed, ncells=3):
    """A lane block ``(n, n, n, ncells)`` of random cell tensors."""
    u = np.random.default_rng(seed).standard_normal((ncells,) + (k + 1,) * 3)
    return np.moveaxis(u, 0, -1).copy()


@pytest.mark.parametrize("k,nq", KERNELS)
@pytest.mark.parametrize("dtype,rtol", DTYPES)
def test_exact_against_direct_evaluation(k, nq, dtype, rtol):
    kern = TensorProductKernel(k, nq)
    u = _cell_data(k, seed=10 * k + nq)
    want = _direct(kern, u)
    vals, grads = kern.values_and_gradients(u.astype(dtype))
    assert vals.dtype == grads.dtype == dtype
    got = np.concatenate([vals[None], grads])
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("k,nq", KERNELS)
def test_flop_model_charges_the_sweeps_the_kernel_runs(k, nq, monkeypatch):
    """``laplace_flops(...).cell`` minus its quadrature-point work equals
    the dense 1D work of every sweep ``cell_laplacian`` executes."""
    done = []
    real = sf.apply_1d

    def counting(M, u, dim, out=None):
        done.append(2 * M.size * (u.size // M.shape[1]))
        return real(M, u, dim, out=out)

    monkeypatch.setattr(sf, "apply_1d", counting)
    kern = TensorProductKernel(k, nq)
    metric = np.ones((6,) + (nq,) * 3 + (1,))
    cell_laplacian(kern, metric, _cell_data(k, 0, ncells=1), Workspace())
    assert len(done) == 12
    assert sum(done) == laplace_flops(k, nq).cell - 18 * nq**3


class TestCollocationPath:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_standard_path(self, k):
        """The textbook nodal-basis factorization (interpolation and
        derivative of the nodal basis at the Gauss points, three
        factors per gradient component) gives the same gradients."""
        kern = TensorProductKernel(k)
        u = _cell_data(k, seed=k)
        N, D = kern.shape.interp, kern.shape.grad
        std = np.stack([
            np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, N, N, D),
            np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, N, D, N),
            np.einsum("zyxc,Zz,Yy,Xx->ZYXc", u, D, N, N),
        ])
        np.testing.assert_allclose(kern.gradients_cm(u), std, rtol=0, atol=1e-12 * np.abs(std).max())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integrate_gradients_adjoint(self, k):
        """<I_g^T q, u> == <q, I_g u> on the hot-path form: component-
        major stacks through one shared workspace."""
        rng = np.random.default_rng(10 + k)
        kern = TensorProductKernel(k)
        u = rng.standard_normal((k + 1, k + 1, k + 1, 2))
        q = rng.standard_normal((3,) + (k + 1,) * 3 + (2,))
        ws = Workspace()
        lhs = np.sum(kern.integrate_gradients_cm(q, ws) * u)
        rhs = np.sum(q * kern.gradients_cm(u, ws))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * np.abs(q).sum())


@settings(deadline=None, max_examples=20)
@given(k=st.integers(1, 4), extra=st.integers(0, 2), seed=st.integers(0, 999))
def test_collocation_property(k, extra, seed):
    kern = TensorProductKernel(k, k + 1 + extra)
    u = _cell_data(k, seed, ncells=2)
    want = _direct(kern, u)[1:]
    got = kern.gradients_cm(u)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# -- the lane layout -------------------------------------------------------

def _kron3(mz, my, mx):
    return reduce(np.kron, (mz, my, mx))


def _dense(kern):
    """Dense ``(q^3, n^3)`` matrices of :meth:`values` and the three
    reference-gradient components, ``(n^3, n^3)`` ones of the nodal
    gradients: the Kronecker products the sweeps factor."""
    sh = kern.shape
    Mi, Dq = sh.interp, sh.grad
    Dn, I = kern.nodal_diff, np.eye(kern.n_dofs_1d)
    V = _kron3(Mi, Mi, Mi)
    G = [_kron3(Mi, Mi, Dq), _kron3(Mi, Dq, Mi), _kron3(Dq, Mi, Mi)]
    N = [_kron3(I, I, Dn), _kron3(I, Dn, I), _kron3(Dn, I, I)]
    return V, G, N


def _lanes_apply(A, u):
    """Dense ``A`` on the tensor axes of a lane block (..., t, t, t, N)."""
    m = round(A.shape[0] ** (1 / 3))
    flat = u.reshape(u.shape[:-4] + (-1, u.shape[-1]))
    return np.einsum("ij,...jc->...ic", A, flat).reshape(u.shape[:-4] + (m,) * 3 + u.shape[-1:])


class TestLaneLayout:
    """Every cell method of :class:`TensorProductKernel` on a lane block
    equals the dense Kronecker reference, and a stacked ``(L, ..., N)``
    application is its members' solo runs bit for bit."""

    @pytest.mark.parametrize("k,nq", KERNELS)
    @pytest.mark.parametrize("dtype,rtol", DTYPES)
    def test_cell_methods_match_kron(self, k, nq, dtype, rtol):
        kern = TensorProductKernel(k, nq)
        rng = np.random.default_rng(100 * k + nq)
        u = rng.standard_normal((k + 1,) * 3 + (5,))
        q = rng.standard_normal((nq,) * 3 + (5,))
        qg = rng.standard_normal((3,) + (nq,) * 3 + (5,))
        V, G, N = _dense(kern)
        cases = [
            (kern.values(u.astype(dtype)), _lanes_apply(V, u)),
            (kern.gradients_cm(u.astype(dtype)), np.stack([_lanes_apply(g, u) for g in G])),
            (kern.integrate_values(q.astype(dtype)), _lanes_apply(V.T, q)),
            (kern.integrate_gradients_cm(qg.astype(dtype)),
             sum(_lanes_apply(g.T, qg[i]) for i, g in enumerate(G))),
            (kern.nodal_gradients(u.astype(dtype)), np.stack([_lanes_apply(n, u) for n in N])),
        ]
        for got, want in cases:
            assert got.dtype == dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    @pytest.mark.parametrize("k,nq", [(1, 2), (2, 4), (3, 4)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_is_bitwise_solo(self, k, nq, dtype):
        kern = TensorProductKernel(k, nq)
        rng = np.random.default_rng(k)
        u = rng.standard_normal((2, 3) + (k + 1,) * 3 + (7,)).astype(dtype)
        q = rng.standard_normal((2, 3) + (nq,) * 3 + (7,)).astype(dtype)
        qg = rng.standard_normal((3, 2, 3) + (nq,) * 3 + (7,)).astype(dtype)
        metric = rng.uniform(0.5, 1.5, (6,) + (nq,) * 3 + (7,)).astype(dtype)
        ws = Workspace()
        stacked = [kern.values(u), kern.gradients_cm(u), kern.integrate_values(q),
                   kern.integrate_gradients_cm(qg), kern.nodal_gradients(u),
                   cell_laplacian(kern, metric, u, ws).copy()]
        for i, j in np.ndindex(2, 3):
            solo = [kern.values(u[i, j]), kern.gradients_cm(u[i, j]),
                    kern.integrate_values(q[i, j]), kern.integrate_gradients_cm(qg[:, i, j]),
                    kern.nodal_gradients(u[i, j]), cell_laplacian(kern, metric, u[i, j], ws)]
            for n, (a, b) in enumerate(zip(stacked, solo)):
                a = a[:, i, j] if n in (1, 4) else a[i, j]
                assert np.array_equal(a, b), n


def test_hot_path_sweeps_are_lane_wide(curved_hanging, monkeypatch):
    """Every sweep of the DG and CG Laplacian, mass, inverse-mass,
    convective and penalty applications contracts against right-hand
    sides at least ``n_cells`` wide (no cell-major sweep is left on the
    hot path); the DG Laplacian runs exactly 12 sweeps, charged by the
    unchanged flop model."""
    geo, conn, dg = curved_hanging
    forest, k = geo.forest, geo.degree
    N = forest.n_cells
    dof_u = DGDofHandler(forest, k, n_components=3)
    geo_over = GeometryField(forest, k, n_q_points=k + 2)
    penalty = DivergenceContinuityPenalty(dof_u, geo, conn)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(dof_u.n_dofs)
    penalty.update_parameters(u)
    cg_dof = CGDofHandler(forest, k, conn)
    apps = {
        "dg_laplace": (dg.vmult, rng.standard_normal(dg.n_dofs)),
        "cg_laplace": (CGLaplaceOperator(cg_dof, geo).vmult, rng.standard_normal(cg_dof.n_dofs)),
        "mass": (MassOperator(dof_u, geo).vmult, u),
        "inverse_mass": (InverseMassOperator(dof_u, geo).vmult, u),
        "convective": (ConvectiveOperator(dof_u, geo_over, conn, BoundaryConditions()).apply, u),
        "penalty": (penalty.vmult, u),
        "penalty_update": (penalty.update_parameters, u),
    }
    done = []
    real = sf.apply_1d

    def recording(M, v, dim, out=None):
        done.append((dim, math.prod(v.shape[v.ndim - dim:]), 2 * M.size * (v.size // M.shape[1])))
        return real(M, v, dim, out=out)

    monkeypatch.setattr(sf, "apply_1d", recording)
    for name, (fn, x) in apps.items():
        done.clear()
        fn(x)
        assert done, name
        for dim, width, _ in done:
            assert dim >= 1 and width >= N, (name, dim, width)
        if name == "dg_laplace":
            nq = geo.kernel.n_q_points
            assert len(done) == 12
            assert sum(f for *_, f in done) == N * (laplace_flops(k, nq).cell - 18 * nq**3)
