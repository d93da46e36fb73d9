"""Sum-factorized tensor-product kernels (Section 3.1, Eq. (7)).

A DG solution on a hexahedral element of degree ``k`` has
``(k+1)^3`` coefficients stored as a 3D tensor.  Interpolating it to the
``n_q^3`` quadrature points costs ``O(n^4)`` per element instead of the
naive ``O(n^6)`` by applying the 1D interpolation matrix along one tensor
dimension at a time — *sum factorization*.  Everything the matrix-free
operators in :mod:`repro.core.operators` do is composed of the primitives
in this module.

Data layout (the Python analogue of cross-element SIMD vectorization):
the cell kernels of :class:`TensorProductKernel` work on *lane blocks*
``u[..., iz, iy, ix, c]`` — the cell index is the trailing, fastest axis,
as the lane index of deal.II's ``VectorizedArray`` is innermost in the
paper's kernels.  A 1D contraction along x, y or z is then one GEMM
stack whose right-hand sides are at least the ``N`` cells wide, never a
``K = k + 1`` tall-skinny product or a stack of tiny per-cell ones.
Global DG vectors are stored in the same order, ``(*lead, [3,] n, n, n,
N)`` with a velocity's components as its innermost lead axis, so a
vector *is* a lane block (:meth:`~repro.core.dof_handler.DGDofHandler.lanes`
views it) and neither the kernels nor the face loops copy it into
another layout.  Components and members are batch axes of every kernel
alike.

:func:`apply_1d` itself is layout-agnostic: dimension ``d = 0`` is the
*last* array axis, ``d = 1`` the one before it, and so on — on a lane
block x is ``d = 1``, y ``d = 2`` and z ``d = 3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import kernel_dtype
from .basis import ShapeMatrices, shape_matrices

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
    """Contract matrix ``M`` with tensor ``u`` along dimension ``dim``,
    the array axis ``u.ndim - 1 - dim`` (``dim = 0`` is the last axis).
    The result replaces the size of that axis by ``M.shape[0]``:

        out[..., i_dim', ...] = sum_j M[i_dim', j] u[..., j, ...]

    ``out``, when given, receives the result (its dtype must match the
    promoted result dtype so no rounding changes sneak in).

    The whole batch is reshaped so BLAS sees one large product (dim 0),
    one ``kron(M, I)`` product (dim 1 over at most ``_KRON_MAX_TRAIL``
    trailing values) or a stack of products whose right-hand sides are
    the trailing axes — on a lane block at least the ``N`` cells wide —
    instead of thousands of ``(k+1) x (k+1)`` matrices: this is where
    single precision actually buys bandwidth, since sgemm streams half
    the bytes of dgemm.
    """
    u = np.ascontiguousarray(u)
    axis = u.ndim - 1 - dim
    m, n = M.shape
    # explicit extents, not -1, so an empty block (a rank without cells) runs
    lead, tr = math.prod(u.shape[:axis]), math.prod(u.shape[axis + 1:])
    # a strided ``out`` cannot alias the GEMM buffer; compute fresh and copy
    fold = out if out is not None and out.flags.c_contiguous else None
    if dim == 0:
        a, b, shape = u.reshape(lead, n), M.T, (lead, m)
    elif dim == 1 and tr <= _KRON_MAX_TRAIL:
        # fold the (n1, n0) block and contract against kron(M, I) in one
        # GEMM — n0-fold redundant Flops, but a single sgemm/dgemm
        a, b, shape = u.reshape(lead, n * tr), _kron_identity(M, tr).T, (lead, m * tr)
    else:
        a, b, shape = M, u.reshape(lead, n, tr), (lead, m, tr)
    res = np.matmul(a, b, out=None if fold is None else fold.reshape(shape))
    if fold is not None:
        return fold
    res = res.reshape(u.shape[:axis] + (m,) + u.shape[axis + 1:])
    if out is None:
        return res
    out[...] = res
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

    # -- cell kernels (operator I_e and I_e^T of Eq. (7)) ---------------
    # Every cell method takes and returns lane blocks ``(*lead, n|q, n|q,
    # n|q, N)``; direction d (0 = x) is ``apply_1d`` dimension d + 1.

    def apply_tensor(self, M: np.ndarray, u: np.ndarray, ws=None,
                     tags=("tpk.a", "tpk.b"), out: np.ndarray | None = None) -> np.ndarray:
        """Sweep the 1D matrix ``M`` along x, then y, then z of the lane
        block ``u``, into ``out``, else the ``ws`` buffer ``tags[0]``;
        the intermediates alternate ``tags[0]``, ``tags[1]`` (fresh
        arrays without ``ws``), so ``u`` must not live in ``tags[0]``."""
        dt = np.result_type(M.dtype, u.dtype)
        m, n = M.shape
        lead, N = u.shape[:-4], u.shape[-1]
        shapes = (lead + (n, n, m, N), lead + (n, m, m, N), lead + (m, m, m, N))
        for d in range(3):
            dst = out if d == 2 else None
            if dst is None and ws is not None:
                dst = ws.take(tags[d % 2], shapes[d], dt)
            u = apply_1d(M, u, d + 1, out=dst)
        return u

    def values(self, u: np.ndarray, ws=None) -> np.ndarray:
        """Interpolate nodal coefficients to quadrature-point values,
        ``(*lead, n, n, n, N) -> (*lead, q, q, q, N)``; with a
        :class:`~repro.core.plans.Workspace` ``ws`` the result is its
        ``tpk.a`` (consume it before the next kernel call)."""
        return self.apply_tensor(self._mat("interp", kernel_dtype(u.dtype)), u, ws)

    def values_and_gradients(self, u: np.ndarray, ws=None):
        """Values and component-major reference gradients: the three
        interpolation sweeps of :meth:`values`, then one collocation-
        derivative sweep per direction.  Returns ``(values, gradients)``
        with gradients ``(3, *lead, q, q, q, N)`` (:meth:`gradients_cm`);
        with ``ws`` they are its ``tpk.a`` and ``tpk.g``."""
        nq = self.n_q_points
        dt = kernel_dtype(u.dtype)
        shape = (3,) + u.shape[:-4] + (nq, nq, nq, u.shape[-1])
        g = np.empty(shape, dt) if ws is None else ws.take("tpk.g", shape, dt)
        vals = self.values(u, ws)
        D = self._mat("co_grad", dt)
        for i in range(3):
            apply_1d(D, vals, i + 1, out=g[i])
        return vals, g

    def gradients_cm(self, u: np.ndarray, ws=None) -> np.ndarray:
        """Reference gradients at the quadrature points, *component-
        major*: ``(*lead, n, n, n, N) -> (3, *lead, q, q, q, N)``, every
        d/dx̂_d one contiguous lane block (``ws``'s ``tpk.g`` with ``ws``)."""
        return self.values_and_gradients(u, ws)[1]

    def integrate_values(self, q: np.ndarray, ws=None,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Test against values, the transpose of :meth:`values`:
        quadrature data ``(*lead, q, q, q, N)`` (JxW etc. applied) ->
        nodal residuals ``(*lead, n, n, n, N)``, into ``out``, else
        ``ws``'s ``tpk.b``, else fresh.  ``q`` may be ``tpk.a``."""
        Mt = self._mat("interp_t", kernel_dtype(q.dtype))
        return self.apply_tensor(Mt, q, ws, ("tpk.b", "tpk.a"), out)

    def integrate_gradients_cm(self, q: np.ndarray, ws=None,
                               out: np.ndarray | None = None) -> np.ndarray:
        """Test against gradients, transpose of :meth:`gradients_cm`:
        component-major ``(3, *lead, q, q, q, N)`` -> ``(*lead, n, n, n,
        N)`` (``out`` or a fresh array; intermediates ``ws``'s ``tpk.a``,
        ``tpk.b`` or fresh): three accumulated transposed collocation-
        derivative sweeps, then :meth:`integrate_values`."""
        n = self.n_dofs_1d
        dt = kernel_dtype(q.dtype)
        if out is None:
            out = np.empty(q.shape[1:-4] + (n, n, n, q.shape[-1]), dt)
        Dt = self._mat("co_grad_t", dt)
        shape = q.shape[1:]
        acc = apply_1d(Dt, q[0], 1, out=None if ws is None else ws.take("tpk.a", shape, dt))
        t = np.empty(shape, dt) if ws is None else ws.take("tpk.b", shape, dt)
        acc += apply_1d(Dt, q[1], 2, out=t)
        acc += apply_1d(Dt, q[2], 3, out=t)
        return self.integrate_values(acc, ws, out=out)

    # -- nodal-lattice kernels (geometry precomputation) ----------------
    @property
    def nodal_diff(self) -> np.ndarray:
        """1D differentiation matrix at the nodal points themselves."""
        return self._mat("nodal_diff", _F64)

    def nodal_gradients(self, u: np.ndarray) -> np.ndarray:
        """Reference gradients evaluated at the nodal lattice (not the
        quadrature points), component-major: ``(*lead, n, n, n, N) ->
        (3, *lead, n, n, n, N)``.

        Used to differentiate the precomputed polynomial geometry
        (Heltai et al. 2021) when building metric terms.
        """
        D = self._mat("nodal_diff", kernel_dtype(u.dtype))
        return np.stack([apply_1d(D, u, d + 1) for d in range(3)])

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
