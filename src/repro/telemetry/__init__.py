"""Solver telemetry: hierarchical tracing spans, the solver-health
metric registry, per-step run-log sinks, and run reports.

The solve stack (time integrator, Krylov/multigrid solvers, matrix-free
operators) opens spans on the process-global :data:`TRACER` and records
counters, gauges and histograms in the process-global :data:`METRICS`
registry; both are disabled by default and cost one attribute check per
call site when off.  Enable them (``repro lung --trace`` turns on both,
``--metrics-file`` the registry alone) to collect a hierarchical
wall-time profile with per-region call counts, per-sub-step timings,
the analytic work-model annotations behind ``repro roofline``, and the
solver-health metrics; pair them with :class:`RunLogWriter` to stream a
schema-versioned JSONL record per time step that ``repro report``
aggregates into the paper's Table-2-style breakdown and ``repro
monitor`` tails while the run is still executing.

A run's metrics are one record, the metric list of
:func:`~repro.telemetry.metrics.snapshot_doc`: the run log's summary
footer carries it, ``--metrics-file x.json`` writes it, and
:func:`load_metrics` reads either back.  Prometheus text
(``--metrics-file x.prom``) is written, never read.
"""

from .dashboard import render_html_dashboard, write_html_dashboard
from .metrics import (
    METRICS,
    MetricRegistry,
    export_metrics,
    load_metrics,
    snapshot_doc,
    to_prometheus,
    write_prometheus,
)
from .monitor import monitor_file, monitor_once, summarize_run
from .report import (
    RunAggregate,
    aggregate_steps,
    render_breakdown,
    render_robustness,
    render_span_tree,
    robustness_rows,
)
from .sinks import SCHEMA, JsonlWriter, RunLogWriter, read_run_log, step_record
from .timeline import (
    TIMELINE_SCHEMA,
    analyze_timeline,
    chrome_trace_doc,
    load_chrome_trace,
    merge_timeline,
    render_timeline,
    render_worker_phases,
    write_chrome_trace,
)
from .tracer import NULL_SPAN, SpanNode, Tracer

#: Process-global tracer the instrumented solve stack reports into.
TRACER = Tracer(enabled=False)

__all__ = [
    "JsonlWriter",
    "METRICS",
    "MetricRegistry",
    "NULL_SPAN",
    "SCHEMA",
    "RunAggregate",
    "RunLogWriter",
    "SpanNode",
    "TIMELINE_SCHEMA",
    "TRACER",
    "Tracer",
    "aggregate_steps",
    "analyze_timeline",
    "chrome_trace_doc",
    "load_chrome_trace",
    "merge_timeline",
    "render_timeline",
    "render_worker_phases",
    "write_chrome_trace",
    "export_metrics",
    "load_metrics",
    "snapshot_doc",
    "to_prometheus",
    "write_prometheus",
    "monitor_file",
    "monitor_once",
    "read_run_log",
    "render_breakdown",
    "render_html_dashboard",
    "render_robustness",
    "render_span_tree",
    "robustness_rows",
    "step_record",
    "summarize_run",
    "write_html_dashboard",
]
