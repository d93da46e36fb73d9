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
  Laplacian's metric product in ``lap.Dg``, the metric helpers of
  :mod:`repro.mesh.mapping` their product in ``metric.t``; face loops use ``sip.*`` /
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
