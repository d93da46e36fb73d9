"""Zero-dependency hierarchical span tracer.

The solve stack is instrumented with *spans* — named, nested timing
regions entered through a context manager::

    with TRACER.span("pressure_poisson"):
        ...

Each distinct (parent, name) pair accumulates inclusive wall time and a
call count into one :class:`SpanNode`; exclusive time (inclusive minus
the children's inclusive time) is derived at report time.  Spans time;
they count nothing beyond their own visits — a span's ``count`` is how
often its region ran (``vmult[DGLaplaceOperator]`` counts the
operator's applications), and every other tally lives in the metric
registry (:data:`~repro.telemetry.metrics.METRICS`).

Spans can additionally carry *work-model annotations* — analytic Flop,
byte-transfer, and DoF tallies attached by the instrumented kernel while
its span is open (:meth:`Tracer.annotate`).  The tallies describe only
the annotating region's **own** work (a parent never re-counts what its
instrumented children annotate), so achieved GFlop/s and GB/s are
computed against the node's *exclusive* time, and subtree sums attribute
work to enclosing sub-steps.  Like everything else here, annotation is a
single attribute check when the tracer is disabled and allocates
nothing.

The process-global tracer is **disabled by default** and every entry
point has a no-op fast path — a single attribute check — so the
instrumentation can stay in the hot paths permanently.  Enabling costs
one ``perf_counter`` pair plus a dict lookup per span, far below the
cost of any instrumented solver stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class SpanNode:
    """Accumulated statistics of one named region under one parent."""

    name: str
    total: float = 0.0  # inclusive seconds across all visits
    count: int = 0
    children: dict[str, "SpanNode"] = field(default_factory=dict)
    # own-work annotations (this node only, children excluded)
    flops: float = 0.0
    bytes: float = 0.0
    dofs: float = 0.0

    @property
    def exclusive(self) -> float:
        """Inclusive time minus the time spent in child spans."""
        return self.total - sum(c.total for c in self.children.values())

    @property
    def has_work(self) -> bool:
        return self.flops != 0.0 or self.bytes != 0.0 or self.dofs != 0.0

    def add_work(self, flops: float = 0.0, bytes: float = 0.0,
                 dofs: float = 0.0) -> None:
        """Accumulate own-work tallies for one visit of this region."""
        self.flops += flops
        self.bytes += bytes
        self.dofs += dofs

    def subtree_work(self) -> tuple[float, float, float]:
        """(flops, bytes, dofs) summed over this node and its subtree."""
        f, b, d = self.flops, self.bytes, self.dofs
        for c in self.children.values():
            cf, cb, cd = c.subtree_work()
            f, b, d = f + cf, b + cb, d + cd
        return f, b, d

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first (depth, node) pairs over the subtree, self first."""
        yield depth, self
        for c in self.children.values():
            yield from c.walk(depth + 1)

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "SpanNode":
        """Rebuild a subtree from the :meth:`to_dict` representation
        (e.g. the ``spans`` section of a run-log summary)."""
        work = d.get("work") or {}
        node = cls(
            name,
            total=float(d.get("total_s", 0.0)),
            count=int(d.get("count", 0)),
            flops=float(work.get("flops", 0.0)),
            bytes=float(work.get("bytes", 0.0)),
            dofs=float(work.get("dofs", 0.0)),
        )
        for cname, cd in (d.get("children") or {}).items():
            node.children[cname] = cls.from_dict(cname, cd)
        return node

    def to_dict(self) -> dict:
        d: dict = {"total_s": self.total, "count": self.count}
        if self.has_work:
            d["work"] = {"flops": self.flops, "bytes": self.bytes,
                         "dofs": self.dofs}
        if self.children:
            d["children"] = {k: v.to_dict() for k, v in self.children.items()}
        return d


class _NullSpan:
    """Shared no-op span returned while the tracer is disabled."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """Live span: pushes its node on the tracer stack for the duration
    and accumulates elapsed time on exit (kept in ``self.elapsed`` so
    callers can also read the single-visit timing)."""

    __slots__ = ("_tracer", "_node", "_t0", "elapsed")

    def __init__(self, tracer: "Tracer", node: SpanNode) -> None:
        self._tracer = tracer
        self._node = node
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._node)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        self._node.total += self.elapsed
        self._node.count += 1
        self._tracer._stack.pop()
        return False


class Tracer:
    """Hierarchical span tracer.

    One process-global instance (:data:`repro.telemetry.TRACER`) is the
    tracer the whole solve stack reports into; independent instances
    can be created for tests.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.root = SpanNode("root")
        self._stack: list[SpanNode] = [self.root]

    # -- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans (keeps the enabled flag)."""
        self.root = SpanNode("root")
        self._stack = [self.root]

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        """Context manager timing a named region nested under the
        currently open span; a shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, self._stack[-1].child(name))

    def annotate(self, flops: float = 0.0, bytes: float = 0.0,
                 dofs: float = 0.0) -> None:
        """Attach own-work tallies to the currently open span.

        Called by instrumented kernels *inside* their span; the tallies
        must cover only the caller's own work — instrumented children
        annotate their spans themselves.  A single attribute check (no
        allocation) when disabled.
        """
        if not self.enabled:
            return
        self._stack[-1].add_work(flops, bytes, dofs)

    # -- inspection ------------------------------------------------------
    def find(self, *path: str) -> SpanNode | None:
        """Look up a span node by its name path from the root."""
        node = self.root
        for name in path:
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def snapshot(self) -> dict:
        """JSON-serializable view of the recorded span tree."""
        return {
            "spans": {k: v.to_dict() for k, v in self.root.children.items()},
        }
