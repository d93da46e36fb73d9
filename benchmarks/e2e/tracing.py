"""Outside-in tracing: spans recorded around calls into the solver's
public functions, from this directory only.

The traced run of a workload replaces public callables of ``repro``
(methods on their classes, functions on the modules that bind them) with
wrappers that record one span per call: name, start, end, parent and the
id of the benchmark op that caused it.  Spans stay in memory and are
written once when the run ends.  Nothing under ``src/`` knows about
this, ``repro.telemetry.TRACER``/``METRICS`` stay disabled, and an
untraced run never imports this module's wrappers — the end-to-end
numbers come from unmodified code.

Span names are ``<layer>.<what>`` with the layer being the module name
below ``repro`` (``core.operators.dg_laplace.vmult``), so a regression
names its layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

import numpy as np

from spec import MAX_MG_LEVEL

# span record layout (a list, mutated once when the span ends)
NAME, START, END, PARENT, OP, FLOPS, BYTES = range(7)

#: op id of spans recorded before the first op (construction phase)
BUILD = -1


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = BUILD
        self.active = False
        self._stack: list[int] = []
        #: one entry per V-cycle in flight: the level it is currently on
        self._mg_level: list[int] = []

    def begin(self, name: str, flops: float = 0.0, nbytes: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self._stack.append(idx)
        self.spans.append([name, 0.0, 0.0, parent, self.op, flops, nbytes])
        self.spans[idx][START] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        """Close span ``idx`` and anything still open inside it (a level
        span whose prolongation never ran because the call raised)."""
        now = perf_counter()
        while self._stack and self._stack[-1] >= idx:
            self.spans[self._stack.pop()][END] = now

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the harness's own code (nothing is
        recorded while the recorder is inactive)."""
        if not self.active:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def dump(self, path) -> None:
        """Write the span log: a name table plus one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"schema": "repro/e2e-trace/1", "names": names,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def traced(rec: Recorder, raw, name, work: bool = False):
    """Wrap ``raw`` so every call records a span.

    ``name`` is the span name, or a callable mapping the first argument
    (``self``) to it.  ``work=True`` stamps the span with the operator's
    own analytic ``work_model()`` (flops and computed bytes per call)."""

    @functools.wraps(raw)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return raw(*args, **kwargs)
        label = name(args[0]) if callable(name) else name
        if work:
            wm = args[0].work_model()
            idx = rec.begin(label, wm["flops"], wm["bytes"])
        else:
            idx = rec.begin(label)
        try:
            return raw(*args, **kwargs)
        finally:
            rec.end(idx)

    return wrapper


def _level_name(level: int) -> str:
    return f"solvers.multigrid.level{min(level, MAX_MG_LEVEL)}"


def _traced_vcycle(rec: Recorder, raw):
    """``HybridMultigridPreconditioner.vmult``: the span of level 0."""

    @functools.wraps(raw)
    def wrapper(self, r):
        if not rec.active:
            return raw(self, r)
        rec._mg_level.append(0)
        idx = rec.begin(_level_name(0))
        try:
            return raw(self, r)
        finally:
            rec.end(idx)
            rec._mg_level.pop()

    return wrapper


def _traced_restrict(rec: Recorder, raw):
    """``Transfer.restrict``: everything between a restriction returning
    and the matching prolongation starting is the next coarser level, so
    the level spans nest like the recursion without touching it."""

    @functools.wraps(raw)
    def wrapper(self, rf):
        if not rec.active or not rec._mg_level:
            return raw(self, rf)
        level = rec._mg_level[-1]
        idx = rec.begin(_level_name(level) + ".transfer")
        try:
            out = raw(self, rf)
        finally:
            rec.end(idx)
        rec._mg_level[-1] = level + 1
        rec.begin(_level_name(level + 1))
        return out

    return wrapper


def _traced_prolongate(rec: Recorder, raw):
    @functools.wraps(raw)
    def wrapper(self, xc):
        if not rec.active or not rec._mg_level:
            return raw(self, xc)
        rec.end(rec._stack[-1])  # the coarser level's span
        level = rec._mg_level[-1] - 1
        rec._mg_level[-1] = level
        idx = rec.begin(_level_name(level) + ".transfer")
        try:
            return raw(self, xc)
        finally:
            rec.end(idx)

    return wrapper


def _traced_scheme_init(rec: Recorder, raw):
    """``DualSplittingScheme.__init__``: the right-hand-side callables of
    its ``SplittingOperators`` bundle are members too; wrap them on the
    instance so their time leaves the scheme's self time."""

    @functools.wraps(raw)
    def wrapper(self, ops, *args, **kwargs):
        for member in ("body_force", "pressure_neumann_rhs", "pressure_dirichlet_rhs"):
            fn = getattr(ops, member)
            if fn is not None:
                setattr(ops, member, traced(rec, fn, "ns.solver." + member))
        return raw(self, ops, *args, **kwargs)

    return wrapper


def _dg_vmult_name(op) -> str:
    if np.dtype(op.dtype) == np.float32:
        return "core.operators.dg_laplace.vmult_f32"
    return "core.operators.dg_laplace.vmult"


#: (module, attribute path on it, span name | namer, kind).  A function
#: imported by name elsewhere is listed once per module that binds it.
CATALOG = [
    ("repro.mesh.connectivity", "build_connectivity", "mesh.connectivity", None),
    ("repro.ns.solver", "build_connectivity", "mesh.connectivity", None),
    ("repro.mesh.mapping", "GeometryField.__init__", "mesh.geometry", None),
    ("repro.mesh.mapping", "GeometryField.cell_metrics", "mesh.geometry", None),
    ("repro.mesh.mapping", "GeometryField.all_face_metrics", "mesh.geometry", None),
    ("repro.core.operators.laplace", "DGLaplaceOperator.__init__",
     "core.operators.dg_laplace.construct", None),
    ("repro.core.operators.laplace", "DGLaplaceOperator.diagonal",
     "core.operators.dg_laplace.diagonal", None),
    ("repro.core.operators.laplace", "DGLaplaceOperator.vmult", _dg_vmult_name, "work"),
    ("repro.core.operators.laplace", "CGLaplaceOperator.vmult",
     "core.operators.cg_laplace.vmult", "work"),
    ("repro.core.operators.convective", "ConvectiveOperator.apply",
     "core.operators.convective.apply", None),
    ("repro.core.operators.grad_div", "DivergenceOperator.apply",
     "core.operators.grad_div.divergence", None),
    ("repro.core.operators.grad_div", "GradientOperator.apply",
     "core.operators.grad_div.gradient", None),
    ("repro.core.operators.vector_laplace", "HelmholtzOperator.vmult",
     "core.operators.helmholtz.vmult", None),
    ("repro.core.operators.vector_laplace", "HelmholtzOperator.boundary_rhs",
     "core.operators.helmholtz.boundary_rhs", None),
    ("repro.core.operators.vector_laplace", "VectorDGLaplace.vmult",
     "core.operators.vector_laplace.vmult", None),
    ("repro.core.operators.penalty", "PenaltyStepOperator.vmult",
     "core.operators.penalty.vmult", None),
    ("repro.core.operators.penalty", "DivergenceContinuityPenalty.update_parameters",
     "core.operators.penalty.update", None),
    ("repro.core.operators.mass", "MassOperator.vmult", "core.operators.mass.vmult", None),
    ("repro.core.operators.mass", "InverseMassOperator.vmult",
     "core.operators.mass.inverse", None),
    ("repro.solvers.krylov", "conjugate_gradient", "solvers.krylov.cg", None),
    ("repro.timeint.dual_splitting", "conjugate_gradient", "solvers.krylov.cg", None),
    ("repro.robustness.recovery", "conjugate_gradient", "solvers.krylov.cg", None),
    ("repro.solvers.multigrid", "HybridMultigridPreconditioner.__init__",
     "solvers.multigrid.setup", None),
    ("repro.solvers.multigrid", "HybridMultigridPreconditioner.vmult", None, "vcycle"),
    ("repro.solvers.transfer", "Transfer.restrict", None, "restrict"),
    ("repro.solvers.transfer", "Transfer.prolongate", None, "prolongate"),
    ("repro.solvers.chebyshev", "ChebyshevSmoother.smooth", "solvers.chebyshev.smooth", None),
    ("repro.solvers.amg", "SmoothedAggregationAMG.vmult", "solvers.amg.coarse", None),
    ("repro.solvers.jacobi", "JacobiPreconditioner.vmult", "solvers.jacobi.vmult", None),
    ("repro.timeint.dual_splitting", "DualSplittingScheme.__init__", None, "scheme_init"),
    ("repro.timeint.dual_splitting", "DualSplittingScheme.step",
     "timeint.dual_splitting.step", None),
    ("repro.ns.solver", "IncompressibleNavierStokesSolver.__init__",
     "ns.solver.construct", None),
    ("repro.ns.solver", "IncompressibleNavierStokesSolver.step", "ns.solver.step", None),
    ("repro.lung.simulation", "grow_airway_tree", "lung.mesh_build", None),
    ("repro.lung.simulation", "airway_tree_mesh", "lung.mesh_build", None),
    ("repro.lung.simulation", "LungVentilationSimulation.__init__", "lung.construct", None),
    ("repro.lung.simulation", "LungVentilationSimulation.step", "lung.step", None),
    ("repro.lung.simulation", "LungVentilationSimulation.close", "lung.close", None),
    ("repro.parallel.runtime", "DistributedSolverContext.__init__",
     "parallel.runtime.pool_start", None),
    ("repro.parallel.runtime", "DistributedSolverContext.close",
     "parallel.runtime.close", None),
    ("repro.parallel.runtime", "DistributedOperator.vmult", "parallel.runtime.vmult", None),
]

_SPECIAL = {
    "vcycle": _traced_vcycle,
    "restrict": _traced_restrict,
    "prolongate": _traced_prolongate,
    "scheme_init": _traced_scheme_init,
}


def install(rec: Recorder) -> None:
    """Replace every catalogued callable by its span-recording wrapper.

    Process-wide and not undone: a traced workload runs in its own
    process.  A catalogue entry that no longer resolves raises — a
    silently missing span would read as a layer that got faster."""
    for module, path, name, kind in CATALOG:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = getattr(owner, attr)
        if kind in _SPECIAL:
            wrapped = _SPECIAL[kind](rec, raw)
        else:
            wrapped = traced(rec, raw, name, work=kind == "work")
        setattr(owner, attr, wrapped)


def span_cost_seconds(n: int = 20000) -> float:
    """Seconds one recorded span adds to a call, timed here on ``n``
    calls of an empty traced function (the empty call itself included,
    so the figure errs high)."""
    rec = Recorder()
    rec.active = True
    empty = traced(rec, lambda: None, "harness.empty")
    t = perf_counter()
    for _ in range(n):
        empty()
    return (perf_counter() - t) / n


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def self_seconds(spans) -> list[float]:
    """Self time of every span: its duration minus the part of it its
    child spans cover (children of one span never overlap here — the
    traced code is single-threaded)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans, ops) -> dict[str, dict]:
    """Per span name over the spans caused by the ops in ``ops``:
    ``calls``, ``self`` seconds, ``incl`` seconds (spans nested inside a
    span of the same name are not counted twice), and the ``flops`` /
    ``bytes`` stamped on them."""
    ops = set(ops)
    selfs = self_seconds(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if s[OP] not in ops:
            continue
        agg = out.setdefault(
            s[NAME], {"calls": 0, "self": 0.0, "incl": 0.0, "flops": 0.0, "bytes": 0.0})
        agg["calls"] += 1
        agg["self"] += selfs[i]
        agg["flops"] += s[FLOPS]
        agg["bytes"] += s[BYTES]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            agg["incl"] += s[END] - s[START]
    return out
