"""Exactness of the one cell-kernel path: three interpolation sweeps to
the Gauss points, then one collocation-derivative sweep per direction
(and its transpose), against direct Lagrange evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.sum_factorization as sf
from repro.core.basis import LagrangeBasis1D
from repro.core.operators.laplace import cell_laplacian
from repro.core.plans import Workspace
from repro.core.quadrature import gauss
from repro.core.sum_factorization import TensorProductKernel
from repro.perf.flops import laplace_flops

#: (degree, n_q) of every kernel shape the solver runs: the standard
#: k+1 points, and k+2 points — the over-integrated convective kernel,
#: and the pressure space (degree k-1) on the velocity's k+1 points
KERNELS = [(k, k + 1) for k in (1, 2, 3, 4)] + [(k, k + 2) for k in (1, 2, 3, 4)]


def _direct(kern, u):
    """Values and reference gradients ``(4, c, q, q, q)`` by evaluating
    every 1D Lagrange polynomial at the Gauss points (no sweeps)."""
    basis = LagrangeBasis1D(kern.degree)
    x = gauss(kern.n_q_points).points
    L, D = basis.values(x), basis.derivatives(x)
    return np.stack([
        np.einsum("czyx,Zz,Yy,Xx->cZYX", u, L, L, L),
        np.einsum("czyx,Zz,Yy,Xx->cZYX", u, L, L, D),
        np.einsum("czyx,Zz,Yy,Xx->cZYX", u, L, D, L),
        np.einsum("czyx,Zz,Yy,Xx->cZYX", u, D, L, L),
    ])


def _cell_data(k, seed, ncells=3):
    return np.random.default_rng(seed).standard_normal((ncells,) + (k + 1,) * 3)


@pytest.mark.parametrize("k,nq", KERNELS)
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 2e-6)])
def test_exact_against_direct_evaluation(k, nq, dtype, rtol):
    kern = TensorProductKernel(k, nq)
    u = _cell_data(k, seed=10 * k + nq)
    want = _direct(kern, u)
    vals, grads = kern.values_and_gradients(u.astype(dtype))
    assert vals.dtype == grads.dtype == dtype
    got = np.concatenate([vals[None], np.moveaxis(grads, -4, 0)])
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
    metric = np.ones((6, 1) + (nq,) * 3)
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
            np.einsum("czyx,Zz,Yy,Xx->cZYX", u, N, N, D),
            np.einsum("czyx,Zz,Yy,Xx->cZYX", u, N, D, N),
            np.einsum("czyx,Zz,Yy,Xx->cZYX", u, D, N, N),
        ])
        np.testing.assert_allclose(kern.gradients_cm(u), std, rtol=0, atol=1e-12 * np.abs(std).max())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integrate_gradients_adjoint(self, k):
        """<I_g^T q, u> == <q, I_g u> on the hot-path form: component-
        major stacks through one shared workspace."""
        rng = np.random.default_rng(10 + k)
        kern = TensorProductKernel(k)
        u = rng.standard_normal((2, k + 1, k + 1, k + 1))
        q = rng.standard_normal((3, 2) + (k + 1,) * 3)
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
