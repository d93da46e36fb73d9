"""Sum-factorized tensor-product kernels (Section 3.1, Eq. (7)).

A DG solution on a hexahedral element of degree ``k`` has
``(k+1)^3`` coefficients stored as a 3D tensor.  Interpolating it to the
``n_q^3`` quadrature points costs ``O(n^4)`` per element instead of the
naive ``O(n^6)`` by applying the 1D interpolation matrix along one tensor
dimension at a time — *sum factorization*.  Everything the matrix-free
operators in :mod:`repro.core.operators` do is composed of the primitives
in this module.

Data layout (the Python analogue of cross-element SIMD vectorization):
all element data is batched as ``u[c, iz, iy, ix]`` — the leading cell
axis plays the role of the AVX-512 lanes of the paper, and NumPy executes
each 1D contraction as one large matrix product over all cells at once.

Dimension convention: dimension ``d = 0`` is x (the *last*, fastest array
axis), ``d = 1`` is y, ``d = 2`` is z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import kernel_dtype
from .basis import ShapeMatrices, shape_matrices
from .plans import Workspace

_F64 = np.dtype(np.float64)

#: cached ``kron(M, I_n0)`` factors for the middle-axis GEMM path.  The
#: key is content-based (shape, dtype, bytes, n0) so transient views of
#: the same matrix — ``M.T``, ``fv[None, :]`` — hit the cache; hashing
#: the few hundred bytes of a 1D shape matrix costs far less than the
#: ``np.kron`` rebuild it avoids.
_kron_cache: dict = {}

#: largest trailing extent for which the middle-axis contraction is
#: folded into one GEMM against ``kron(M, I)``.  The fused product does
#: ``n0``-fold redundant Flops, but replaces thousands of ``(k+1)^2``
#: stacked products with a single BLAS call — a large net win for every
#: realistic quadrature size.
_KRON_MAX_TRAIL = 8


def _kron_identity(M: np.ndarray, n0: int) -> np.ndarray:
    key = (M.shape, M.dtype.char, M.tobytes(), n0)
    KM = _kron_cache.get(key)
    if KM is None:
        KM = np.kron(M, np.eye(n0, dtype=M.dtype))
        if len(_kron_cache) < 512:  # backstop against unbounded growth
            _kron_cache[key] = KM
    return KM


def apply_1d(
    M: np.ndarray, u: np.ndarray, dim: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Contract matrix ``M`` with tensor ``u`` along tensor dimension ``dim``.

    ``u`` has shape ``(..., n_2, n_1, n_0)`` (trailing three axes are the
    tensor axes, anything before is batch).  The result replaces the size
    of dimension ``dim`` by ``M.shape[0]``:

        out[..., i_dim'] = sum_j M[i_dim', j] u[..., j ...]

    ``out``, when given, receives the result (its dtype must match the
    promoted result dtype so no rounding changes sneak in).

    Contiguous inputs take shape-folded GEMM paths: the whole batch is
    reshaped so BLAS sees one large product (dim 0) or a short stack of
    wide products (dims 1-2) instead of thousands of ``(k+1) x (k+1)``
    matrices — this is where single precision actually buys bandwidth,
    since sgemm streams half the bytes of dgemm.
    """
    axis = u.ndim - 1 - dim
    m, n = M.shape
    if u.flags.c_contiguous:
        # a strided ``out`` cannot alias the GEMM buffer; compute fresh
        # and copy — still far cheaper than the per-slice matmul stack
        fold = out if out is not None and out.flags.c_contiguous else None
        if dim == 0:
            # one GEMM over every remaining axis
            res2d = np.matmul(
                u.reshape(-1, n), M.T,
                out=None if fold is None else fold.reshape(-1, m),
            )
            res = res2d.reshape(u.shape[:-1] + (m,)) if fold is None else fold
        else:
            lead = u.shape[: axis]
            trail = u.shape[axis + 1:]
            tr = math.prod(trail)
            if dim == 1 and tr <= _KRON_MAX_TRAIL:
                # fold the (n1, n0) block and contract against kron(M, I)
                # in one GEMM — n0-fold redundant Flops, but a single
                # sgemm/dgemm instead of a stack of (k+1)^2 products
                K = _kron_identity(M, tr)
                res2 = np.matmul(
                    u.reshape(-1, n * tr), K.T,
                    out=None if fold is None else fold.reshape(-1, m * tr),
                )
                res = res2.reshape(lead + (m,) + trail) if fold is None else fold
            else:
                # (lead..., n, trail...) -> stack of (n, prod(trail))
                # right-hand sides; results land in the natural layout
                u3 = u.reshape(-1, n, tr)
                res3 = np.matmul(
                    M, u3, out=None if fold is None else fold.reshape(-1, m, tr)
                )
                res = res3.reshape(lead + (m,) + trail) if fold is None else fold
        if out is None or fold is not None:
            return res
        out[...] = res
        return out
    moved = np.moveaxis(u, axis, -1)
    if out is None:
        res = moved @ M.T
        return np.moveaxis(res, -1, axis)
    np.matmul(moved, M.T, out=np.moveaxis(out, axis, -1))
    return out


@dataclass(frozen=True)
class TensorProductKernel:
    """Bundle of 1D shape matrices + batched 3D evaluation primitives.

    Parameters
    ----------
    degree:
        Polynomial degree ``k`` of the scalar space.
    n_q_points:
        1D Gauss points per direction (default ``k + 1``).

    Cell gradients use the *change of basis* of Section 3.1: the values
    at the quadrature points are the coefficients of the Lagrange basis
    collocated there, so one ``n_q x n_q`` collocation-derivative sweep
    per direction follows the three interpolation sweeps — 6 tensor
    sweeps for values and gradients instead of 9.  The collocation
    derivative is exact for any ``n_q >= k + 1`` (over-integration,
    lower-degree pressure spaces); face traces stay in the nodal basis.
    """

    degree: int
    n_q_points: int = 0

    def __post_init__(self) -> None:
        nq = self.n_q_points or self.degree + 1
        object.__setattr__(self, "n_q_points", nq)
        sm = shape_matrices(self.degree, nq)
        object.__setattr__(self, "_sm", sm)
        # derivative matrix of the Lagrange basis on the n_q Gauss points
        co_grad = shape_matrices(nq - 1, nq, nodes="gauss").grad
        # dtype-matched copies of every 1D factor, keyed (name, dtype).
        # The float64 masters live here too; float32 copies are cast once
        # on first use so single-precision sweeps never touch a float64
        # matrix (which would silently promote the whole contraction).
        object.__setattr__(self, "_mat_cache", {
            ("interp", _F64): sm.interp,
            ("interp_t", _F64): np.ascontiguousarray(sm.interp.T),
            ("co_grad", _F64): co_grad,
            ("co_grad_t", _F64): np.ascontiguousarray(co_grad.T),
        })

    # -- 1D matrices ---------------------------------------------------
    @property
    def shape(self) -> ShapeMatrices:
        return self._sm  # type: ignore[attr-defined]

    @property
    def n_dofs_1d(self) -> int:
        return self.degree + 1

    @property
    def n_dofs_cell(self) -> int:
        return (self.degree + 1) ** 3

    @property
    def n_q_cell(self) -> int:
        return self.n_q_points**3

    @property
    def quadrature_weights(self) -> np.ndarray:
        """Tensor-product quadrature weights, shape (n_q, n_q, n_q)."""
        w = self.shape.quadrature.weights
        return w[:, None, None] * w[None, :, None] * w[None, None, :]

    # -- internal dispatch ----------------------------------------------
    def _mat(self, name: str, dtype: np.dtype) -> np.ndarray:
        """The 1D factor ``name`` cast to ``dtype`` (cached per kernel)."""
        cache = self._mat_cache  # type: ignore[attr-defined]
        key = (name, dtype)
        M = cache.get(key)
        if M is None:
            base = cache.get((name, _F64))
            if base is None:
                if name == "nodal_diff":
                    basis = self.shape.basis
                    base = basis.derivatives(basis.nodes)
                else:
                    raise KeyError(name)
                cache[(name, _F64)] = base = np.ascontiguousarray(base)
            M = np.ascontiguousarray(base, dtype=dtype)
            cache[key] = M
        return M

    def _apply(self, which: str, u: np.ndarray, dim: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """Sweep the 1D factor ``which`` along ``dim`` (into ``out``)."""
        return apply_1d(self._mat(which, kernel_dtype(u.dtype)), u, dim, out=out)

    # -- cell kernels (operator I_e and I_e^T of Eq. (7)) ---------------
    def _ws_dtype(self, u: np.ndarray) -> np.dtype:
        """Compute dtype of a sweep: float32 inputs stay float32 (the
        1D factors are fetched as dtype-matched copies), everything else
        computes in float64."""
        return kernel_dtype(u.dtype)

    def values(self, u: np.ndarray, ws=None) -> np.ndarray:
        """Interpolate nodal coefficients to quadrature-point values.

        ``u``: ``(..., n, n, n)`` -> ``(..., n_q, n_q, n_q)``.

        ``ws`` (a :class:`repro.core.plans.Workspace`) routes every sweep
        through preallocated buffers; the returned array is workspace-
        owned and must be consumed before the next ``ws``-based call.
        """
        if ws is None:
            v = self._apply("interp", u, 0)
            v = self._apply("interp", v, 1)
            return self._apply("interp", v, 2)
        lead, n, nq = u.shape[:-3], self.n_dofs_1d, self.n_q_points
        dt = self._ws_dtype(u)
        M = self._mat("interp", dt)
        v = apply_1d(M, u, 0, out=ws.take("tpk.val.0", lead + (n, n, nq), dt))
        v = apply_1d(M, v, 1, out=ws.take("tpk.val.1", lead + (n, nq, nq), dt))
        return apply_1d(M, v, 2, out=ws.take("tpk.val.2", lead + (nq, nq, nq), dt))

    def _gradients_cm(self, u: np.ndarray, ws):
        """Values and component-major reference gradients: the three
        interpolation sweeps of :meth:`values`, then one collocation-
        derivative sweep per direction."""
        if ws is None:
            ws = Workspace()
        nq = self.n_q_points
        dt = self._ws_dtype(u)
        g = ws.take("tpk.grad.out", (3,) + u.shape[:-3] + (nq, nq, nq), dt)
        vals = self.values(u, ws)
        D = self._mat("co_grad", dt)
        for i in range(3):
            apply_1d(D, vals, i, out=g[i])
        return vals, g

    def gradients_cm(self, u: np.ndarray, ws=None) -> np.ndarray:
        """Reference-coordinate gradients at quadrature points,
        *component-major*: ``u`` ``(..., n, n, n)`` ->
        ``(3, ..., n_q, n_q, n_q)`` with d/dx̂_0, d/dx̂_1, d/dx̂_2 on the
        leading axis.  Every component is one contiguous block, so each
        sweep (and each pointwise metric product after it) is a single
        folded GEMM / flat loop.  With ``ws`` the stack is workspace-
        owned, otherwise fresh."""
        return self._gradients_cm(u, ws)[1]

    def gradients(self, u: np.ndarray) -> np.ndarray:
        """:meth:`gradients_cm` viewed as ``(..., 3, n_q, n_q, n_q)``."""
        return np.moveaxis(self.gradients_cm(u), 0, -4)

    def values_and_gradients(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both values and reference gradients (``(..., 3, n_q, n_q,
        n_q)`` view), sharing intermediates."""
        vals, g = self._gradients_cm(u, None)
        return vals, np.moveaxis(g, 0, -4)

    def integrate_values(self, q: np.ndarray, ws=None,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Test against values: transpose of :meth:`values`.

        ``q``: quadrature data ``(..., n_q, n_q, n_q)`` (already multiplied
        by JxW etc.) -> nodal residual contributions ``(..., n, n, n)``.
        ``out`` (optional, with ``ws``) receives the final sweep so the
        result is caller-owned rather than workspace-owned.
        """
        if ws is None:
            v = self._apply("interp_t", q, 0)
            v = self._apply("interp_t", v, 1)
            res = self._apply("interp_t", v, 2)
            if out is not None:
                np.copyto(out, res)
                return out
            return res
        lead, n, nq = q.shape[:-3], self.n_dofs_1d, self.n_q_points
        dt = self._ws_dtype(q)
        Mt = self._mat("interp_t", dt)
        v = apply_1d(Mt, q, 0, out=ws.take("tpk.iv.0", lead + (nq, nq, n), dt))
        v = apply_1d(Mt, v, 1, out=ws.take("tpk.iv.1", lead + (nq, n, n), dt))
        if out is None:
            out = ws.take("tpk.iv.2", lead + (n, n, n), dt)
        return apply_1d(Mt, v, 2, out=out)

    def integrate_gradients_cm(self, q: np.ndarray, ws=None,
                               out: np.ndarray | None = None) -> np.ndarray:
        """Test against gradients, transpose of :meth:`gradients_cm`:
        component-major ``(3, ..., n_q, n_q, n_q)`` -> ``(..., n, n, n)``
        (``out`` or a fresh array; intermediates live in ``ws``): three
        accumulated transposed collocation-derivative sweeps, then
        :meth:`integrate_values`."""
        if ws is None:
            ws = Workspace()
        n = self.n_dofs_1d
        dt = self._ws_dtype(q)
        if out is None:
            out = np.empty(q.shape[1:-3] + (n, n, n), dt)
        Dt = self._mat("co_grad_t", dt)
        acc = apply_1d(Dt, q[0], 0, out=ws.take("tpk.ig.acc", q.shape[1:], dt))
        t = ws.take("tpk.ig.t", q.shape[1:], dt)
        acc += apply_1d(Dt, q[1], 1, out=t)
        acc += apply_1d(Dt, q[2], 2, out=t)
        return self.integrate_values(acc, ws, out=out)

    def integrate_gradients(self, q: np.ndarray) -> np.ndarray:
        """:meth:`integrate_gradients_cm` for ``q`` of shape
        ``(..., 3, n_q, n_q, n_q)``."""
        return self.integrate_gradients_cm(np.moveaxis(q, -4, 0))

    # -- nodal-lattice kernels (geometry precomputation) ----------------
    @property
    def nodal_diff(self) -> np.ndarray:
        """1D differentiation matrix at the nodal points themselves."""
        return self._mat("nodal_diff", _F64)

    def nodal_gradients(self, u: np.ndarray) -> np.ndarray:
        """Reference gradients evaluated at the nodal lattice (not the
        quadrature points): ``(..., n, n, n) -> (..., 3, n, n, n)``.

        Used to differentiate the precomputed polynomial geometry
        (Heltai et al. 2021) when building metric terms.
        """
        D = self._mat("nodal_diff", kernel_dtype(u.dtype))
        return np.stack(
            [apply_1d(D, u, 0), apply_1d(D, u, 1), apply_1d(D, u, 2)], axis=-4
        )

    def face_nodal_trace(self, u: np.ndarray, face: int) -> np.ndarray:
        """Restrict nodal coefficients to the 2D nodal lattice of a face.

        Gauss-Lobatto nodes include the end points, so the trace is a pure
        slice: ``(..., n, n, n) -> (..., n, n)`` in (a, b) face frame.
        """
        d, s = divmod(face, 2)
        idx = 0 if s == 0 else self.n_dofs_1d - 1
        axis = u.ndim - 1 - d
        return np.take(u, idx, axis=axis)

    def subface_interp_matrix(self, child: int) -> np.ndarray:
        """1D matrix interpolating face-nodal data to the quadrature
        points of one half ``child in {0, 1}`` of the interval — the
        sub-face interpolation used on 2:1 hanging faces (Section 3.4)."""
        basis = self.shape.basis
        q = self.shape.quadrature.points
        return basis.values(0.5 * q + 0.5 * child)

    def face_nodal_to_quad(
        self, t: np.ndarray, subface: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Interpolate a nodal 2D face tensor (a, b axes last) to the face
        quadrature points, optionally restricted to subface ``(sa, sb)``."""
        if subface is None:
            return self._face_interp(t)
        Ma, Mb = (np.asarray(self.subface_interp_matrix(s), kernel_dtype(t.dtype))
                  for s in subface)
        return apply_1d_2d(Ma, apply_1d_2d(Mb, t, 0), 1)

    # -- helpers ---------------------------------------------------------
    def _mat2d(self, name: str, dtype: np.dtype) -> np.ndarray:
        """``kron(M, M)`` of the 1D factor ``name``: applies ``M`` along
        both face axes in a single GEMM (cached per kernel and dtype)."""
        cache = self._mat_cache  # type: ignore[attr-defined]
        key = (name + "@2d", dtype)
        K = cache.get(key)
        if K is None:
            M = self._mat(name, dtype)
            K = np.kron(M, M)
            cache[key] = K
        return K

    def _face_interp(self, t: np.ndarray) -> np.ndarray:
        """Interpolate a 2D nodal face tensor to face quadrature points."""
        dt = kernel_dtype(t.dtype)
        if t.flags.c_contiguous:
            K = self._mat2d("interp", dt)
            qq, nn = K.shape
            q = int(round(qq**0.5))
            res = np.matmul(t.reshape(-1, nn), K.T)
            return res.reshape(t.shape[:-2] + (q, q))
        M = self._mat("interp", dt)
        t = apply_1d_2d(M, t, 0)
        return apply_1d_2d(M, t, 1)


def apply_1d_2d(M: np.ndarray, t: np.ndarray, dim: int) -> np.ndarray:
    """Apply a 1D matrix along dimension ``dim`` of a (batched) 2D tensor
    ``t`` of shape ``(..., n_1, n_0)`` (dim 0 = last axis), with the
    same shape-folded GEMM strategy as :func:`apply_1d`."""
    axis = t.ndim - 1 - dim
    m, n = M.shape
    if not t.flags.c_contiguous:
        return np.moveaxis(np.moveaxis(t, axis, -1) @ M.T, -1, axis)
    if dim == 0:
        return np.matmul(t.reshape(-1, n), M.T).reshape(t.shape[:-1] + (m,))
    n0 = t.shape[-1]
    if n0 <= _KRON_MAX_TRAIL:
        K = _kron_identity(M, n0)
        return np.matmul(t.reshape(-1, n * n0), K.T).reshape(t.shape[:-2] + (m, n0))
    return np.matmul(M, t.reshape(-1, n, n0)).reshape(t.shape[:-2] + (m, n0))
