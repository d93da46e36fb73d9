"""Tests of the sum-factorized tensor kernels against direct evaluation."""

import numpy as np
import pytest

from repro.core.basis import LagrangeBasis1D
from repro.core.operators import FaceLoop
from repro.core.quadrature import gauss, tensor_points
from repro.core.sum_factorization import TensorProductKernel, apply_1d


def eval_nodal_3d(u, nodes, pts):
    """Direct (slow) evaluation of a tensor-product Lagrange interpolant at
    arbitrary points; reference for the fast kernels.  ``u`` has layout
    (z, y, x)."""
    basis = LagrangeBasis1D(len(nodes) - 1, nodes=nodes)
    lx = basis.values(pts[:, 0])
    ly = basis.values(pts[:, 1])
    lz = basis.values(pts[:, 2])
    return np.einsum("zyx,qx,qy,qz->q", u, lx, ly, lz)


def grad_nodal_3d(u, nodes, pts):
    basis = LagrangeBasis1D(len(nodes) - 1, nodes=nodes)
    lx, ly, lz = (basis.values(pts[:, i]) for i in range(3))
    dx, dy, dz = (basis.derivatives(pts[:, i]) for i in range(3))
    g0 = np.einsum("zyx,qx,qy,qz->q", u, dx, ly, lz)
    g1 = np.einsum("zyx,qx,qy,qz->q", u, lx, dy, lz)
    g2 = np.einsum("zyx,qx,qy,qz->q", u, lx, ly, dz)
    return np.stack([g0, g1, g2])


class TestApply1D:
    def test_matches_einsum_all_dims(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((4, 3, 3, 3))
        M = rng.standard_normal((5, 3))
        assert np.allclose(apply_1d(M, u, 0), np.einsum("qx,czyx->czyq", M, u))
        assert np.allclose(apply_1d(M, u, 1), np.einsum("qy,czyx->czqx", M, u))
        assert np.allclose(apply_1d(M, u, 2), np.einsum("qz,czyx->cqyx", M, u))

    def test_no_batch_axis(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 3, 3))
        M = rng.standard_normal((2, 3))
        assert apply_1d(M, u, 1).shape == (3, 2, 3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("over_integrated", [False, True])
class TestCellKernels:
    """The cell path — interpolation, then collocation derivatives —
    against direct evaluation, on the k+1 Gauss points and on the
    over-integrated k+2 points of the convective kernel; lane blocks,
    the cells on the trailing axis."""

    def _setup(self, k, over_integrated, ncells=3, seed=0):
        kern = TensorProductKernel(k, k + 2 if over_integrated else k + 1)
        rng = np.random.default_rng(seed)
        u = np.moveaxis(rng.standard_normal((ncells, k + 1, k + 1, k + 1)), 0, -1).copy()
        pts = tensor_points(gauss(kern.n_q_points), 3)
        nodes = kern.shape.basis.nodes
        return kern, u, pts, nodes

    def test_values_match_direct(self, k, over_integrated):
        kern, u, pts, nodes = self._setup(k, over_integrated)
        fast = kern.values(u)
        for c in range(u.shape[-1]):
            direct = eval_nodal_3d(u[..., c], nodes, pts)
            assert np.allclose(fast[..., c].ravel(), direct, atol=1e-11)

    def test_gradients_match_direct(self, k, over_integrated):
        kern, u, pts, nodes = self._setup(k, over_integrated)
        fast = kern.gradients_cm(u)
        for c in range(u.shape[-1]):
            direct = grad_nodal_3d(u[..., c], nodes, pts)
            assert np.allclose(fast[..., c].reshape(3, -1), direct, atol=1e-10)

    def test_values_and_gradients_consistent(self, k, over_integrated):
        kern, u, _, _ = self._setup(k, over_integrated)
        v, g = kern.values_and_gradients(u)
        assert np.allclose(v, kern.values(u))
        assert np.allclose(g, kern.gradients_cm(u))

    def test_integrate_values_is_transpose(self, k, over_integrated):
        """<I^T q, u> == <q, I u> for all q, u (adjoint identity)."""
        kern, u, _, _ = self._setup(k, over_integrated, ncells=2)
        rng = np.random.default_rng(7)
        q = rng.standard_normal((kern.n_q_points,) * 3 + (2,))
        lhs = np.sum(kern.integrate_values(q) * u)
        rhs = np.sum(q * kern.values(u))
        assert np.isclose(lhs, rhs, rtol=1e-11)

    def test_integrate_gradients_is_transpose(self, k, over_integrated):
        kern, u, _, _ = self._setup(k, over_integrated, ncells=2)
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3,) + (kern.n_q_points,) * 3 + (2,))
        lhs = np.sum(kern.integrate_gradients_cm(q) * u)
        rhs = np.sum(q * kern.gradients_cm(u))
        assert np.isclose(lhs, rhs, rtol=1e-11)

    def test_mass_integral_of_one(self, k, over_integrated):
        """integrate(1 * w_q) over the reference cell gives nodal weights
        that sum to the cell volume 1."""
        kern, _, _, _ = self._setup(k, over_integrated)
        nodal = kern.integrate_values(kern.quadrature_weights[..., None])
        assert np.isclose(nodal.sum(), 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("face", range(6))
class TestFaceKernels:
    """The face path the operators run: :class:`FaceLoop` traces (value
    and minus-frame ``d_n, d_a, d_b`` derivatives at the face quadrature
    points) and their adjoint ``integrate``, on all six faces of two
    cells seen as boundary rows."""

    @staticmethod
    def _face_points(kern, face):
        """3D reference points of the face quadrature lattice, (a, b)
        running over the remaining dims in descending order."""
        d, s = divmod(face, 2)
        q1 = gauss(kern.n_q_points).points
        rem = [dd for dd in (2, 1, 0) if dd != d]
        pts = np.empty((kern.n_q_points, kern.n_q_points, 3))
        pts[..., d] = float(s)
        pts[..., rem[0]] = q1[:, None]
        pts[..., rem[1]] = q1[None, :]
        return pts.reshape(-1, 3)

    @staticmethod
    def _loop(kern, face):
        """Four-sheet loop whose two rows are ``face`` of cells 0 and 1."""
        none = np.zeros(0, np.intp)
        return FaceLoop(kern, 2, 2, (none,) * 6,
                        (np.arange(2), np.full(2, face), np.zeros(2, np.intp)))

    def _trace(self, loop, u, full=True):
        """Traces of the cells ``u`` (L, 2, n, n, n) through their lane
        block."""
        buf = np.empty((u.shape[0], loop.size))
        loop.sheets(np.ascontiguousarray(np.moveaxis(u, 1, -1)), buf)
        (ch,) = loop.chunks
        return loop.trace(buf, ch, slice(0, 2), full).copy()

    def _integrate(self, loop, R):
        """Adjoint of :meth:`_trace`: the cell tensors tested by ``R``."""
        buf = np.zeros((R.shape[0], loop.size))
        (ch,) = loop.chunks
        loop.integrate(R, ch, buf, slice(0, 2))
        out = np.zeros((R.shape[0],) + (loop.n1,) * 3 + (2,))
        loop.expand(buf, out)
        return np.moveaxis(out, -1, 1)

    @staticmethod
    def _reference_order(face, frame):
        """Frame components ``(n, a, b)`` back to reference dims."""
        d = face // 2
        a, b = [dd for dd in (2, 1, 0) if dd != d]
        out = np.empty_like(frame)
        out[d], out[a], out[b] = frame
        return out

    def test_face_values_match_direct(self, k, face):
        kern = TensorProductKernel(k)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((2, k + 1, k + 1, k + 1))
        Q = self._trace(self._loop(kern, face), u[None])[0]
        nq = kern.n_q_points
        assert Q.shape == (4, 2, nq * nq)
        vals, grads = Q[0], self._reference_order(face, Q[1:])
        nodes = kern.shape.basis.nodes
        pts = self._face_points(kern, face)
        for c in range(2):
            direct = eval_nodal_3d(u[c], nodes, pts)
            assert np.allclose(vals[c], direct, atol=1e-11)
            direct_g = grad_nodal_3d(u[c], nodes, pts)
            assert np.allclose(grads[:, c], direct_g, atol=1e-10)

    def test_face_integrate_adjoint(self, k, face):
        kern = TensorProductKernel(k)
        loop = self._loop(kern, face)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((1, 2, k + 1, k + 1, k + 1))
        q = rng.standard_normal((1, 2, kern.n_q_points ** 2))
        lhs = np.sum(self._integrate(loop, q) * u)
        rhs = np.sum(q * self._trace(loop, u)[:, 0])
        assert np.isclose(lhs, rhs, rtol=1e-11)

    def test_face_normal_derivative_adjoint(self, k, face):
        """Derivative traces (normal and tangential) and the combined
        value + derivative integration are exact adjoints."""
        kern = TensorProductKernel(k)
        loop = self._loop(kern, face)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((1, 2, k + 1, k + 1, k + 1))
        R = rng.standard_normal((1, 4, 2, kern.n_q_points ** 2))
        Q = self._trace(loop, u)
        R0 = R.copy()
        R0[:, 0] = 0
        assert np.isclose(np.sum(self._integrate(loop, R0) * u), np.sum(R0 * Q), rtol=1e-11)
        assert np.isclose(np.sum(self._integrate(loop, R) * u), np.sum(R * Q), rtol=1e-11)

    def test_face_normal_derivative_of_linear(self, k, face):
        """The reference gradient of the coordinate function x_d is the
        unit vector e_d on every face."""
        kern = TensorProductKernel(k)
        d, s = divmod(face, 2)
        nodes = kern.shape.basis.nodes
        # nodal coefficients of f(x) = x_d
        grids = np.meshgrid(nodes, nodes, nodes, indexing="ij")  # x, y, z
        f = np.stack([grids[d].transpose(2, 1, 0)] * 2)[None]  # (1, 2, z, y, x)
        Q = self._trace(self._loop(kern, face), f)[0]
        assert np.allclose(Q[0], float(s), atol=1e-11)
        grads = self._reference_order(face, Q[1:])
        assert np.allclose(grads, np.eye(3)[d][:, None, None], atol=1e-11)


class TestValueLoopAdjoint:
    """The value rows of the planned loop on the meshes where plans can
    go wrong (curved, reoriented, 2:1 hanging faces): the gather
    (:meth:`FaceLoop.trace`) and the scatter (:meth:`FaceLoop.integrate`
    + ``finish`` + ``expand``) are exact adjoints, and loops of two
    spaces over one table have identical chunks."""

    @staticmethod
    def _check(forest, conn, rng):
        from repro.core.operators.base import value_faces
        from repro.mesh.mapping import GeometryField

        geo = GeometryField(forest, 2)
        loop, _ = value_faces(geo, conn)
        loop_p, _ = value_faces(geo, conn, TensorProductKernel(1, 3))
        for ch, ch_p in zip(loop.chunks, loop_p.chunks):
            assert ch[:6] == ch_p[:6]
        u = rng.standard_normal((2, 3, 3, 3, forest.n_cells))  # a lane block
        buf = u.reshape(2, -1)  # value rows gather straight from the nodes
        out = np.zeros_like(u)
        dst = np.empty((2, loop.size))
        rhs = 0.0
        for ch in loop.chunks:
            R = rng.standard_normal((2,) + ch.idx.shape[2:] + (9,))
            rhs += np.sum(R * loop.trace(buf, ch))
            loop.integrate(R, ch, dst)
        loop.finish(dst)
        loop.expand(dst, out)
        assert np.isclose(np.sum(out * u), rhs, rtol=1e-12)

    def test_curved_hanging(self, curved_hanging, rng):
        geo, conn, _ = curved_hanging
        self._check(geo.forest, conn, rng)

    def test_rotated_hanging_box(self, rotated_hanging_box, rng):
        self._check(*rotated_hanging_box, rng)
