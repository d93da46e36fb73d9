"""Shared machinery of the matrix-free operators (Eq. (7)).

Every DG operator is a sum of cell contributions
``G_e^T I_e^T D_e I_e G_e`` and face contributions
``G_f^T I_f^T D_f I_f G_f``.  :class:`FaceKernels` supplies the ``I_f``
part of the flow operators (the SIP Laplacian has its own face loop,
:class:`~repro.core.operators.laplace.FaceLoop`): evaluation of value and
reference-gradient traces of a cell field at the (minus-frame) face
quadrature points — handling neighbor orientation and 2:1 sub-face
interpolation — together with the exact adjoints used for ``I_f^T``.

Conventions: all quantities on a face batch live in the *minus* frame;
the plus side's reference-gradient components remain indexed by the plus
cell's reference dimensions (so the plus side's ``J^{-T}`` applies
directly).  Gradient stacks are component-major, ``(3, ..., q, q)``.
"""

from __future__ import annotations

import functools

import numpy as np

from ...mesh.connectivity import Orientation, orient_face_array, orient_to_plus
from ...telemetry import TRACER
from ..backend import DEFAULT_DTYPE, kernel_dtype
from ..plans import Workspace, cached_scatter_plan, contract
from ..sum_factorization import TensorProductKernel, apply_1d_2d


def tangential_dims(face: int) -> tuple[int, int]:
    """Reference dimensions (a, b) of the face frame: higher dim first."""
    d = face // 2
    rem = [dd for dd in (2, 1, 0) if dd != d]
    return rem[0], rem[1]


class FaceKernels:
    """Value/gradient face traces and their adjoints for one kernel."""

    def __init__(self, kernel: TensorProductKernel) -> None:
        self.kern = kernel

    # -- evaluation ------------------------------------------------------
    def to_quad(
        self,
        t: np.ndarray,
        orientation: Orientation | None = None,
        subface: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Nodal face data (own frame) -> minus-frame quadrature values."""
        if orientation is not None and not orientation.is_identity:
            t = orient_face_array(t, orientation)
        return self.kern.face_nodal_to_quad(t, subface)

    def side_values(
        self,
        u_cells: np.ndarray,
        face: int,
        orientation: Orientation | None = None,
        subface: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Values of one side of a face batch at the minus quadrature
        points: (..., n, n, n) -> (..., q, q)."""
        return self.to_quad(
            self.kern.face_nodal_trace(u_cells, face), orientation, subface
        )

    def interior_values(self, u: np.ndarray, batch, axis: int):
        """Value traces ``(minus, plus)`` of both sides of an interior
        face batch; ``axis`` is the cell axis of ``u``."""
        return (
            self.side_values(np.take(u, batch.cells_m, axis=axis), batch.face_m),
            self.side_values(
                np.take(u, batch.cells_p, axis=axis), batch.face_p,
                batch.orientation, batch.subface,
            ),
        )

    def eval_side(
        self,
        u_cells: np.ndarray,
        face: int,
        orientation: Orientation | None = None,
        subface: tuple[int, int] | None = None,
    ):
        """Evaluate one side of a face batch at the minus quadrature points.

        ``u_cells``: (..., n, n, n) -> (values (..., q, q), component-
        major reference gradient (3, ..., q, q)).  The gradient's
        component axis indexes the *cell's own* reference dimensions;
        its tangential components come from the value trace.
        """
        kern = self.kern
        t_val = kern.face_nodal_trace(u_cells, face)
        dt = kernel_dtype(t_val.dtype)
        D = kern.nodal_diff_matrix(dt)
        a_dim, b_dim = tangential_dims(face)
        grad = np.empty((3,) + t_val.shape, dt)
        grad[face // 2] = kern.face_nodal_normal_derivative(u_cells, face)
        apply_1d_2d(D, t_val, 1, out=grad[a_dim])
        apply_1d_2d(D, t_val, 0, out=grad[b_dim])
        return (self.to_quad(t_val, orientation, subface),
                self.to_quad(grad, orientation, subface))

    # -- integration (adjoints) -------------------------------------------
    def from_quad(
        self,
        q: np.ndarray,
        orientation: Orientation | None = None,
        subface: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Adjoint of :meth:`to_quad`."""
        t = self.kern.face_quad_to_nodal_t(q, subface)
        if orientation is not None and not orientation.is_identity:
            t = orient_to_plus(t, orientation)
        return t

    def integrate_side(
        self,
        face: int,
        q_val: np.ndarray | None,
        q_grad: np.ndarray | None,
        orientation: Orientation | None = None,
        subface: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Adjoint of :meth:`eval_side`: accumulate quadrature-space
        coefficients of test-function values (``q_val``) and component-
        major reference gradients (``q_grad``, own-frame components)
        into fresh cell tensors."""
        kern = self.kern
        plane = normal = None
        if q_val is not None:
            plane = self.from_quad(q_val, orientation, subface)
        if q_grad is not None:
            a_dim, b_dim = tangential_dims(face)
            g = np.ascontiguousarray(self.from_quad(q_grad, orientation, subface))
            Dt = kern.nodal_diff_matrix(kernel_dtype(g.dtype), transpose=True)
            tang = apply_1d_2d(Dt, g[a_dim], 1)
            tang += apply_1d_2d(Dt, g[b_dim], 0)
            if plane is not None:
                tang += plane
            plane, normal = tang, g[face // 2]
        return kern.expand_face_traces(plane, normal, face)


def physical_gradient(jinv_t: np.ndarray, ref_grad: np.ndarray) -> np.ndarray:
    """Apply J^{-T} per face quadrature point: ``jinv_t`` (F, 3, 3, q, q),
    ``ref_grad`` (..., F, C, 3, q, q) — reference gradients of a
    C-component field — -> physical gradients of the same shape."""
    return contract("fijab,...fcjab->...fciab", jinv_t, ref_grad)


def _instrument_entry(raw):
    """Wrap an operator-application entry point with telemetry.

    When the tracer is enabled, one application opens a
    ``vmult[<ClassName>]`` span (whose ``count`` is the number of
    applications) and annotates it with the operator's analytic own-work
    model (flops / bytes / dofs) so the roofline attribution can compute
    achieved GFlop/s and GB/s per kernel.  When disabled the wrapper is
    a single attribute check in front of the raw method.
    """

    @functools.wraps(raw)
    def wrapped(self, x, *args, **kwargs):
        if not TRACER.enabled:
            return raw(self, x, *args, **kwargs)
        name = type(self).__name__
        with TRACER.span("vmult[" + name + "]"):
            wm = self.work_model()
            # a (*lead, n) stack does prod(lead) vectors' worth of work in
            # one application — scale the own-work annotation accordingly
            scale = float(np.prod(np.shape(x)[:-1]))
            TRACER.annotate(
                scale * wm["flops"], scale * wm["bytes"], scale * wm["dofs"]
            )
            return raw(self, x, *args, **kwargs)

    wrapped.__instrumented__ = True
    return wrapped


class MatrixFreeOperator:
    """Minimal linear-operator interface shared by all operators.

    Every operator carries a lazily created plan cache (scatter plans,
    contraction paths, reusable workspaces; see :mod:`repro.core.plans`).
    Shallow clones (e.g. the float32 operators inside the multigrid
    V-cycle) may share the cache: scatter plans are dtype-agnostic and
    workspace buffers are keyed by dtype.

    Subclasses are instrumented automatically: the outermost application
    entry point each class defines itself (``apply`` when present — the
    nonlinear/affine operators route ``vmult`` through it — else
    ``vmult``) is wrapped with the span + work-model telemetry of
    :func:`_instrument_entry`.  Operators composed of other instrumented
    operators (Helmholtz, the vector Laplacian, the penalty step) report
    only their *own* work; the inner operators annotate their nested
    spans themselves.
    """

    dtype = DEFAULT_DTYPE

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for entry in ("apply", "vmult"):
            fn = cls.__dict__.get(entry)
            if fn is not None and not getattr(fn, "__instrumented__", False):
                setattr(cls, entry, _instrument_entry(fn))
                break

    @property
    def plan_cache(self) -> dict:
        cache = self.__dict__.get("_plan_cache")
        if cache is None:
            cache = {}
            self.__dict__["_plan_cache"] = cache
        return cache

    def workspace(self) -> Workspace:
        cache = self.plan_cache
        ws = cache.get("workspace")
        if ws is None:
            ws = Workspace()
            cache["workspace"] = ws
        return ws

    def _scatter_add(self, out: np.ndarray, indices: np.ndarray,
                     contrib: np.ndarray, key, axis: int = 0) -> None:
        """Planned ``out[indices] += contrib`` along ``axis``; ``key``
        identifies the index set in the plan cache.  ``axis=len(lead)``
        serves batch-stacked cell tensors ``(*lead, N, ...)``."""
        plan = cached_scatter_plan(
            self.plan_cache, ("scatter", key), indices, out.shape[axis]
        )
        plan.add(out, contrib, axis=axis)

    def _add_interior_flux(self, out: np.ndarray, fk: FaceKernels, ib: int,
                           batch, rv: np.ndarray, axis: int) -> None:
        """Test the value flux ``rv`` of interior batch ``ib`` (minus
        frame; the plus side sees ``-rv``) against both sides and
        accumulate into the cell tensors ``out`` along cell axis ``axis``."""
        contrib_m = fk.integrate_side(batch.face_m, rv, None)
        contrib_p = fk.integrate_side(
            batch.face_p, -rv, None, batch.orientation, batch.subface
        )
        self._scatter_add(out, batch.cells_m, contrib_m, ("int", ib, "m"), axis=axis)
        self._scatter_add(out, batch.cells_p, contrib_p, ("int", ib, "p"), axis=axis)

    @property
    def precision_bytes(self) -> int:
        """Bytes per value at the operator's compute dtype — the knob the
        analytic transfer models scale with (a float32 clone reports half
        the bytes of its float64 master, doubling the modelled AI)."""
        return int(np.dtype(self.dtype).itemsize)

    def work_model(self) -> dict:
        """Cached analytic own-work model of one application:
        ``{"flops", "bytes", "dofs"}`` (see :mod:`repro.perf.flops` /
        :mod:`repro.perf.memory`).  Keyed by compute dtype because
        shallow dtype clones share the plan cache but move half the
        bytes."""
        cache = self.plan_cache
        key = ("work_model", np.dtype(self.dtype).str)
        wm = cache.get(key)
        if wm is None:
            wm = cache[key] = self._build_work_model()
        return wm

    def _build_work_model(self) -> dict:
        """Default: a pure vector-stream model (read the source, write +
        read-for-update the destination; no Flop estimate).  Operators
        with analytic Flop/transfer counts override this."""
        n = float(self.n_dofs)
        return {"flops": 0.0, "bytes": 3.0 * self.precision_bytes * n, "dofs": n}

    @property
    def n_dofs(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def vmult(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.vmult(x)
