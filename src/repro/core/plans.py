"""Precomputed execution plans for the matrix-free hot path.

Kronbichler & Kormann (2017) attribute the memory-bandwidth-limited
throughput of matrix-free operator evaluation to one discipline: do all
index computation and data-movement planning *once*, so the per-
application loop is nothing but streaming arithmetic.  This module is
the NumPy rendition of that discipline, shared by every operator in
:mod:`repro.core.operators`:

* :class:`ScatterPlan` — a precomputed destination-index plan replacing
  ``np.add.at(out, cells, contrib)`` (indexed ``+=`` for unique indices,
  a planned ``np.add.reduceat`` segment sum otherwise).  The operators'
  face terms no longer scatter per batch (the face loop of
  :mod:`repro.core.operators.base` writes sheet slots); the benchmark's
  scatter probe measures this primitive.
* :func:`contract` — an einsum dispatcher with a global plan cache.
  Contractions with at most two operands and a small contracted extent
  (the ``J^{-T} g`` style metric applications, contracting a length-3
  component axis) run fastest through the *direct* C einsum loop;
  routing them through ``optimize=True``/``einsum_path`` pays a
  tensordot round trip with transposed copies that costs several times
  the arithmetic.  Multi-operand contractions (the closed-form diagonal
  formulas) do benefit from a precomputed ``np.einsum_path``.  The
  dispatch is decided once per (subscripts, shapes) signature and
  cached — deterministically, from the contraction structure, so runs
  are reproducible.
* :class:`Workspace` — a scratch arena, so steady-state applications
  (Chebyshev and CG inner loops) perform no large allocations.
  :data:`SCRATCH` is the one arena of the process: every operator,
  dtype clone, multigrid level, face loop and rank-local operator takes
  its scratch there, one byte buffer per *tag* viewed at the requested
  shape and dtype and grown only by a larger request.  The contract is
  process-wide: a tag is live from the ``take`` that hands it out until
  its contents are last read, and nobody holds an arena array across a
  call that may take the same tag.  The cell kernels reuse a tag once
  its contents are dead: their sweeps alternate ``tpk.a``/``tpk.b``
  (``values`` leaves its result in ``tpk.a``, which the integrations
  read and never write first), gradients live in ``tpk.g``, the
  Laplacian's metric product in ``lap.Dg``; face loops use ``sip.*`` /
  ``fl.*`` (a trial and a test loop distinct ones), a rank
  ``rank.lanes``.  Forked workers inherit the arena copy-on-write.
"""

from __future__ import annotations

import math

import numpy as np

from ..telemetry.metrics import METRICS
from .backend import DEFAULT_DTYPE

_SCRATCH_BYTES = METRICS.gauge(
    "repro_scratch_bytes", "bytes held by the process-wide scratch arena")

#: Contracted-extent threshold below which a 1- or 2-operand einsum is
#: dispatched to the direct C loop instead of a precomputed path (the
#: path would route through tensordot/BLAS whose packing copies dominate
#: at these sizes).
DIRECT_CONTRACTION_LIMIT = 8

_PATH_CACHE: dict = {}


def _contraction_strategy(subscripts: str, operands) -> object:
    """Deterministic plan for one einsum signature: ``False`` for the
    direct C loop, or a precomputed ``np.einsum_path`` path list."""
    if len(operands) <= 1:
        return False
    lhs, arrow, out_labels = subscripts.partition("->")
    if len(operands) == 2:
        # extent of the contracted index space; labels behind an
        # ellipsis (broadcast batch axes, never contracted) are located
        # from the right
        dims: dict[str, int] = {}
        for labels, op in zip(lhs.split(","), operands):
            head, _, tail = labels.partition("...")
            dims.update(zip(head, op.shape))
            dims.update(zip(reversed(tail), reversed(op.shape)))
        if not arrow:
            out_labels = "".join(c for c in dims if lhs.count(c) == 1)
        extent = 1
        for ch in set(dims) - set(out_labels):
            extent *= dims[ch]
        if extent <= DIRECT_CONTRACTION_LIMIT:
            return False
    path, _ = np.einsum_path(subscripts, *operands, optimize="optimal")
    return path


def contract(subscripts: str, *operands, out: np.ndarray | None = None):
    """``np.einsum`` with a cached, deterministic contraction plan.

    The plan (direct C loop vs. precomputed path) is decided on first use
    per (subscripts, operand shapes) and reused for every later call —
    no per-application path search.  Subscripts may carry an ellipsis
    for leading batch axes (``"cilzyx,...cizyx->...clzyx"``), so one
    spelling serves flat and ensemble-stacked fields.  A fresh result is
    C-contiguous in the order of its output subscripts (einsum's default
    would mimic the operands' strides), so a component-major output
    ``"...->l...czyx"`` hands the sum-factorization sweeps contiguous
    blocks.
    """
    key = (subscripts, tuple(op.shape for op in operands))
    strategy = _PATH_CACHE.get(key)
    if strategy is None:
        strategy = _contraction_strategy(subscripts, operands)
        _PATH_CACHE[key] = strategy
    return np.einsum(subscripts, *operands, out=out, order="C", optimize=strategy)


class ScatterPlan:
    """Precomputed scatter-add ``out[indices] += contrib`` along one axis.

    When the planned index set has no duplicates the scatter is an
    indexed ``+=``.
    Otherwise an argsort order and ``np.add.reduceat`` segment starts are
    precomputed once and every application folds duplicates first.
    """

    __slots__ = ("indices", "n_rows", "is_unique", "order", "segments", "targets")

    def __init__(self, indices: np.ndarray, n_rows: int) -> None:
        idx = np.ascontiguousarray(np.asarray(indices, dtype=np.intp))
        if idx.ndim != 1:
            raise ValueError("ScatterPlan needs a 1D index array")
        if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
            raise ValueError("scatter indices out of range")
        self.indices = idx
        self.n_rows = int(n_rows)
        if idx.size == 0:
            self.is_unique = True
            self.order = self.segments = self.targets = None
            return
        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        new_segment = np.empty(idx.size, dtype=bool)
        new_segment[0] = True
        np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=new_segment[1:])
        if new_segment.all():
            self.is_unique = True
            self.order = self.segments = self.targets = None
        else:
            self.is_unique = False
            self.order = order
            self.segments = np.flatnonzero(new_segment)
            self.targets = sorted_idx[self.segments]

    def add(self, out: np.ndarray, contrib: np.ndarray, axis: int = 0) -> np.ndarray:
        """Accumulate ``contrib`` slices into ``out`` along ``axis``.

        ``axis=0`` is the classic ``out[indices] += contrib``; a larger
        ``axis`` serves batch-stacked states ``(*lead, N, ...)`` where the
        cell axis sits behind ``len(lead)`` leading axes.
        """
        if self.indices.size == 0:
            return out
        lead = (slice(None),) * axis
        if self.is_unique:
            out[lead + (self.indices,)] += contrib
        else:
            folded = np.add.reduceat(
                contrib[lead + (self.order,)], self.segments, axis=axis
            )
            out[lead + (self.targets,)] += folded
        return out


class Workspace:
    """Arena of scratch arrays: ``take(tag, shape, dtype)`` views the
    tag's byte buffer (contents undefined), replaced only when a larger
    one is asked for; distinct tags never alias.  Growth sets the
    ``repro_scratch_bytes`` gauge; a warm call only looks its view up.
    """

    __slots__ = ("_bytes", "_views")

    def __init__(self) -> None:
        self._bytes: dict = {}
        self._views: dict = {}

    def take(self, tag: str, shape: tuple, dtype=DEFAULT_DTYPE) -> np.ndarray:
        key = (tag, shape, dtype)
        arr = self._views.get(key)
        if arr is None:
            dtype = np.dtype(dtype)
            size = math.prod(shape) * dtype.itemsize
            buf = self._bytes.get(tag)
            if buf is None or buf.size < size:
                buf = self._bytes[tag] = np.empty(size, np.uint8)
                self._views = {k: v for k, v in self._views.items() if k[0] != tag}
                _SCRATCH_BYTES.set(self.nbytes)
            arr = self._views[key] = buf[:size].view(dtype).reshape(shape)
        return arr

    def zeros(self, tag: str, shape: tuple, dtype=DEFAULT_DTYPE) -> np.ndarray:
        arr = self.take(tag, shape, dtype)
        arr[...] = 0
        return arr

    def clear(self) -> None:
        """Drop every buffer (the next requests start from nothing)."""
        self._bytes, self._views = {}, {}
        _SCRATCH_BYTES.set(0)

    @property
    def n_buffers(self) -> int:
        return len(self._bytes)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._bytes.values())


#: the process-wide scratch arena (see the module docstring)
SCRATCH = Workspace()
