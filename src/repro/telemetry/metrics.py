"""Typed solver-health metric registry with Prometheus and JSON exporters.

The numerics of a run (CG convergence shape, per-MG-level residual
reduction, Chebyshev eigenvalue estimates, divergence/energy health,
recovery and checkpoint activity) report into one process-global
:data:`METRICS` registry — the package's only counter and gauge store
(the :class:`~repro.telemetry.tracer.Tracer` times, the registry
counts) — holding three metric types:

* :class:`Counter` — monotonic float totals (``*_total`` names),
* :class:`Gauge` — last-written values,
* :class:`Histogram` — fixed bucket edges, per-bucket counts plus
  sum/count (Prometheus ``le`` semantics: bucket ``i`` counts
  observations ``<= edges[i]``),

each also available as a *labeled family* whose children are keyed by
frozen label-value tuples (``family.labels(("pressure", "nan"))``).

The registry follows the same zero-allocation disabled fast-path
discipline as the :class:`~repro.telemetry.tracer.Tracer`: instrumented
modules create their metric handles **once at import time** (the
module-level handle pattern — ``scripts/check_metric_imports.py``
enforces it) and every recording entry point is a single attribute
check while the registry is disabled.  Call sites that would build
dynamic label values or f-strings guard on ``METRICS.enabled`` first.

One record is read back: the metric list :func:`snapshot_doc` builds.
``--metrics-file x.json`` writes it as a schema-versioned JSON document
(``repro/metrics/1``), a run log's summary footer carries it as-is, and
:func:`load_metrics` reads either.  The Prometheus text exposition
format is an export only:

* :func:`to_prometheus` / :func:`write_prometheus` /
  :func:`doc_to_prometheus` — a ``.prom`` textfile for the
  node-exporter textfile collector (``--metrics-file x.prom``,
  ``repro metrics export``); nothing in the package parses it back.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from pathlib import Path

from .sinks import read_run_log

SCHEMA = "repro/metrics/1"

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default bucket edges for residual-reduction-style ratios in (0, 1]
REDUCTION_BUCKETS = (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
#: default bucket edges for Krylov iteration counts
ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


def _fmt(v: float) -> str:
    """Prometheus sample-value formatting: integers without a trailing
    ``.0`` so counters read naturally, everything else via ``repr``."""
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class _NullMetric:
    """Shared no-op child returned by families while metrics are
    disabled (mirrors the tracer's ``NULL_SPAN``)."""

    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class Counter:
    """Monotonic total.  ``inc`` is a no-op while the registry is
    disabled; negative increments are rejected."""

    __slots__ = ("_registry", "value")
    kind = "counter"

    def __init__(self, registry: "MetricRegistry") -> None:
        self._registry = registry
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        self.value += n

    def _reset(self) -> None:
        self.value = 0.0

    def _samples(self, labels: tuple) -> list[dict]:
        return [{"labels": list(labels), "value": self.value}]


class Gauge:
    """Last-written value; unset gauges export no sample."""

    __slots__ = ("_registry", "value", "is_set")
    kind = "gauge"

    def __init__(self, registry: "MetricRegistry") -> None:
        self._registry = registry
        self.value = 0.0
        self.is_set = False

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self.value = float(value)
        self.is_set = True

    def _reset(self) -> None:
        self.value = 0.0
        self.is_set = False

    def _samples(self, labels: tuple) -> list[dict]:
        if not self.is_set:
            return []
        return [{"labels": list(labels), "value": self.value}]


class Histogram:
    """Fixed-bucket histogram.  ``counts[i]`` holds observations with
    ``value <= edges[i]`` (exclusive of lower buckets); ``counts[-1]``
    is the overflow (``+Inf``) bucket.  NaN observations are dropped —
    a realized-CFL sample before the first velocity exists is NaN by
    design, not a signal."""

    __slots__ = ("_registry", "edges", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, registry: "MetricRegistry", edges: tuple[float, ...]) -> None:
        self._registry = registry
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        v = float(value)
        if math.isnan(v):
            return
        self.counts[bisect_left(self.edges, v)] += 1
        self.sum += v
        self.count += 1

    def _reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

    def _samples(self, labels: tuple) -> list[dict]:
        return [
            {
                "labels": list(labels),
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }
        ]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _validate_edges(edges) -> tuple[float, ...]:
    edges = tuple(float(e) for e in edges)
    if not edges:
        raise ValueError("a histogram needs at least one bucket edge")
    if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
        raise ValueError(f"bucket edges must be strictly increasing: {edges}")
    return edges


class _Family:
    """Labeled metric family: children keyed by frozen label tuples.

    ``labels`` returns the shared :data:`NULL_METRIC` while the
    registry is disabled, before touching (or even normalizing) the
    key, so the disabled path allocates nothing.  Call sites whose
    label values are built dynamically (f-strings, ``str(i)``) must
    guard on ``registry.enabled`` themselves.
    """

    __slots__ = ("_registry", "name", "kind", "label_names", "_make", "children")

    def __init__(self, registry, name, kind, label_names, make) -> None:
        self._registry = registry
        self.name = name
        self.kind = kind
        self.label_names = label_names
        self._make = make
        self.children: dict[tuple[str, ...], object] = {}

    def labels(self, values):
        """Child metric for one frozen label-value tuple (a bare string
        is accepted for single-label families)."""
        if not self._registry.enabled:
            return NULL_METRIC
        if isinstance(values, str):
            values = (values,)
        child = self.children.get(values)
        if child is None:
            values = tuple(str(v) for v in values)
            if len(values) != len(self.label_names):
                raise ValueError(
                    f"{self.name}: expected {len(self.label_names)} label "
                    f"value(s) {self.label_names}, got {values}"
                )
            child = self.children.get(values)
            if child is None:
                child = self.children[values] = self._make()
        return child

    def _reset(self) -> None:
        self.children.clear()

    def _samples(self, _labels: tuple = ()) -> list[dict]:
        out: list[dict] = []
        for key in sorted(self.children):
            out.extend(self.children[key]._samples(key))
        return out


class MetricRegistry:
    """Registry of named metrics and metric families.

    One process-global instance (:data:`METRICS`) is what the solve
    stack publishes into; independent instances can be created for
    tests.  Disabled by default — every recording path is then a
    single attribute check and allocates nothing.  Registration is
    idempotent (re-registering an identical metric returns the same
    handle) so module-level handles survive repeated imports; a
    conflicting re-registration raises.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._metrics: dict[str, dict] = {}  # name -> entry dict

    # -- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero all recorded values but keep every registration (the
        module-level handles stay valid)."""
        for entry in self._metrics.values():
            entry["metric"]._reset()

    # -- registration ----------------------------------------------------
    def _register(self, name, kind, help, label_names, edges, source):
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} is not a valid Prometheus name"
            )
        label_names = tuple(str(n) for n in label_names or ())
        for ln in label_names:
            if not _NAME_RE.match(ln):
                raise ValueError(f"{name}: invalid label name {ln!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if (
                existing["kind"] != kind
                or existing["labels"] != label_names
                or existing.get("edges") != edges
            ):
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{existing['kind']} with labels {existing['labels']}"
                )
            return existing["metric"]
        if source is None:
            # registration happens at import/setup time, never in a hot
            # loop, so a frame inspection here is free in practice
            import sys

            frame = sys._getframe(2)
            source = frame.f_globals.get("__name__", "")
        make = (
            (lambda: Histogram(self, edges))
            if kind == "histogram"
            else (lambda: _KINDS[kind](self))
        )
        metric = _Family(self, name, kind, label_names, make) if label_names else make()
        entry = {
            "name": name,
            "kind": kind,
            "help": help,
            "labels": label_names,
            "metric": metric,
            "source": source,
        }
        if kind == "histogram":
            entry["edges"] = edges
        self._metrics[name] = entry
        return metric

    def counter(self, name, help="", labels=(), source=None):
        """Register (or look up) a counter; with ``labels`` a
        :class:`_Family` of counters."""
        return self._register(name, "counter", help, labels, None, source)

    def gauge(self, name, help="", labels=(), source=None):
        return self._register(name, "gauge", help, labels, None, source)

    def histogram(self, name, help="", buckets=REDUCTION_BUCKETS, labels=(),
                  source=None):
        edges = _validate_edges(buckets)
        return self._register(name, "histogram", help, labels, edges, source)

    # -- inspection ------------------------------------------------------
    def get(self, name: str):
        entry = self._metrics.get(name)
        return entry["metric"] if entry else None

    def catalog(self) -> list[dict]:
        """Registered-metric descriptions (name, type, labels, source,
        help) sorted by name — the basis of the README/dashboard metric
        catalog tables."""
        out = []
        for name in sorted(self._metrics):
            e = self._metrics[name]
            row = {
                "name": name,
                "type": e["kind"],
                "labels": list(e["labels"]),
                "source": e["source"],
                "help": e["help"],
            }
            if e["kind"] == "histogram":
                row["buckets"] = list(e["edges"])
            out.append(row)
        return out


#: Process-global metric registry the solve stack publishes into.
METRICS = MetricRegistry(enabled=False)


# ----------------------------------------------------------------------
# snapshot documents (schema repro/metrics/1)
# ----------------------------------------------------------------------
def _metric_dicts(registry: MetricRegistry) -> list[dict]:
    out = []
    for name in sorted(registry._metrics):
        e = registry._metrics[name]
        m = e["metric"]
        d = {
            "name": name,
            "type": e["kind"],
            "help": e["help"],
            "labels": list(e["labels"]),
            "source": e["source"],
            "samples": m._samples(()),
        }
        if e["kind"] == "histogram":
            d["buckets"] = list(e["edges"])
        out.append(d)
    return out


def snapshot_doc(registry: MetricRegistry, meta: dict | None = None) -> dict:
    """One schema-versioned JSON document of the registry's state."""
    return {
        "schema": SCHEMA,
        "meta": dict(meta or {}),
        "metrics": _metric_dicts(registry),
    }


def load_metrics(path) -> dict:
    """Read a metric list as a snapshot document: a JSON snapshot
    document, or a ``.jsonl`` run log, whose summary footer carries the
    run's ``metrics`` list (``repro lung --log-file`` with ``--trace``
    or ``--metrics-file``)."""
    path = Path(path)
    if path.suffix == ".jsonl":
        header, _, summary = read_run_log(path)
        if not summary or "metrics" not in summary:
            raise ValueError(
                f"{path}: run log has no summary metrics (rerun with "
                "--trace or --metrics-file)"
            )
        meta = {k: v for k, v in header.items() if k not in ("type", "schema")}
        return {"schema": SCHEMA, "meta": meta, "metrics": summary["metrics"]}
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError:
        raise ValueError(
            f"{path}: not JSON — metrics are read from a {SCHEMA} JSON "
            "snapshot (--metrics-file x.json) or a .jsonl run log; "
            "Prometheus text is an export only"
        ) from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported metrics schema {schema!r} "
            f"(expected {SCHEMA!r})"
        )
    doc.setdefault("meta", {})
    doc.setdefault("metrics", [])
    return doc


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _label_str(names, values, extra=()) -> str:
    pairs = [
        f'{n}="{_escape_label(str(v))}"' for n, v in zip(names, values)
    ]
    pairs.extend(f'{n}="{_escape_label(str(v))}"' for n, v in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def doc_to_prometheus(doc: dict) -> str:
    """Render a snapshot document in the Prometheus text format."""
    lines: list[str] = []
    for m in doc.get("metrics", []):
        name, kind = m["name"], m["type"]
        if m.get("help"):
            lines.append(f"# HELP {name} {_escape_help(m['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        label_names = m.get("labels", [])
        for s in m.get("samples", []):
            values = s.get("labels", [])
            if kind == "histogram":
                edges = m.get("buckets", [])
                cum = 0
                for edge, c in zip(edges, s["counts"]):
                    cum += c
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_str(label_names, values, [('le', _fmt(edge))])}"
                        f" {cum}"
                    )
                cum += s["counts"][len(edges)]
                lines.append(
                    f"{name}_bucket"
                    f"{_label_str(label_names, values, [('le', '+Inf')])} {cum}"
                )
                lines.append(
                    f"{name}_sum{_label_str(label_names, values)} "
                    f"{_fmt(s['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_str(label_names, values)} "
                    f"{s['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_str(label_names, values)} "
                    f"{_fmt(s['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def to_prometheus(registry: MetricRegistry) -> str:
    return doc_to_prometheus(snapshot_doc(registry))


def write_prometheus(source, path) -> Path:
    """Write a ``.prom`` textfile from a registry or snapshot doc."""
    doc = source if isinstance(source, dict) else snapshot_doc(source)
    path = Path(path)
    path.write_text(doc_to_prometheus(doc))
    return path


# ----------------------------------------------------------------------
# exports and rendering
# ----------------------------------------------------------------------
def export_metrics(source, path, meta: dict | None = None) -> Path:
    """Write a registry's — or a snapshot document's — state to
    ``path``; the suffix picks the format — ``.prom``/``.txt``
    for the Prometheus textfile, anything else for the JSON snapshot
    document."""
    doc = source if isinstance(source, dict) else snapshot_doc(source)
    if meta:
        doc = {**doc, "meta": {**doc.get("meta", {}), **meta}}
    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        return write_prometheus(doc, path)
    with path.open("w") as f:
        json.dump(doc, f, indent=2, allow_nan=True)
        f.write("\n")
    return path


def render_metrics_table(doc: dict) -> str:
    """Human-readable summary of a snapshot document."""
    lines = [f"{'metric':<44s} {'type':<10s} {'labels':<28s} {'value':>14s}"]
    for m in doc.get("metrics", []):
        label_names = m.get("labels", [])
        samples = m.get("samples", [])
        if not samples:
            lines.append(f"{m['name']:<44s} {m['type']:<10s} {'-':<28s} {'-':>14s}")
            continue
        for s in samples:
            lbl = (
                ",".join(f"{n}={v}" for n, v in zip(label_names, s["labels"]))
                or "-"
            )
            if m["type"] == "histogram":
                mean = s["sum"] / s["count"] if s["count"] else float("nan")
                val = f"n={s['count']} mean={mean:.4g}"
            else:
                val = f"{s['value']:.6g}"
            lines.append(
                f"{m['name']:<44s} {m['type']:<10s} {lbl:<28s} {val:>14s}"
            )
    return "\n".join(lines)
