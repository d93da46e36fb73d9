"""Structured run-log sinks.

The JSONL run log is the machine-readable record of a solver run — one
JSON object per line: a schema-versioned ``header`` first, one ``step``
record per time step, and an optional ``summary`` footer carrying the
tracer's span tree (``spans``) and the run's metric list (``metrics``,
shaped as in a ``repro/metrics/1`` snapshot).
``repro report``, ``repro monitor``, ``repro metrics`` and the HTML
dashboard (and any external tooling) consume these files; the schema
string is bumped on breaking changes so readers can refuse logs they do
not understand.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import IO

SCHEMA = "repro-runlog/2"


def step_record(stats, step_index: int, extra: dict | None = None) -> dict:
    """Flatten a :class:`~repro.timeint.dual_splitting.StepStatistics`
    into one JSON-serializable run-log record."""
    rec = {
        "type": "step",
        "step": step_index,
        "t": stats.t,
        "dt": stats.dt,
        "cfl": stats.cfl,
        "wall_time_s": stats.wall_time,
        "pressure_residual": getattr(stats, "pressure_residual", float("nan")),
        "iterations": {
            "pressure": stats.pressure_iterations,
            "viscous": stats.viscous_iterations,
            "penalty": stats.penalty_iterations,
        },
        "substeps_s": dict(stats.substep_seconds),
    }
    if extra:
        rec.update(extra)
    return rec


class JsonlWriter:
    """Generic streaming JSONL sink: a schema-versioned ``header``
    record first, then arbitrary records, flushed line by line so a
    crashed run leaves a readable prefix.  Usable as a context manager.
    Run logs and the verification rate tables both write through it."""

    def __init__(
        self, path: str | Path, schema: str, meta: dict | None = None
    ) -> None:
        self.path = Path(path)
        self._f: IO[str] | None = self.path.open("w")
        self._write({"type": "header", "schema": schema, **(meta or {})})

    def _write(self, rec: dict) -> None:
        if self._f is None:
            raise ValueError(f"run log {self.path} is already closed")
        json.dump(rec, self._f, allow_nan=True)
        self._f.write("\n")
        self._f.flush()

    def write_record(self, rec: dict) -> None:
        self._write(rec)

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RunLogWriter(JsonlWriter):
    """Streaming JSONL writer: header, then one record per time step,
    then a summary footer.  Usable as a context manager."""

    def __init__(self, path: str | Path, meta: dict | None = None) -> None:
        self.n_steps = 0
        super().__init__(path, SCHEMA, meta)

    def write_step(self, stats, extra: dict | None = None) -> dict:
        rec = step_record(stats, self.n_steps, extra)
        self._write(rec)
        self.n_steps += 1
        return rec

    def write_summary(self, tracer=None, metrics: list | None = None,
                      extra: dict | None = None) -> None:
        """Footer record: the tracer's span tree and the run's metric
        list (a snapshot document's ``metrics``), each when given."""
        rec: dict = {"type": "summary", "n_steps": self.n_steps}
        if tracer is not None:
            rec.update(tracer.snapshot())
        if metrics is not None:
            rec["metrics"] = metrics
        if extra:
            rec.update(extra)
        self._write(rec)


def read_run_log(path: str | Path, on_corrupt: str = "raise"):
    """Parse a JSONL run log; returns ``(header, steps, summary)`` where
    ``summary`` is ``None`` for truncated logs (e.g. a crashed run).

    A run killed mid-write leaves a partial final line; that line is
    skipped with a :class:`RuntimeWarning` instead of raising, so crash
    logs stay readable.  Malformed lines *before* the end of the file
    indicate corruption, not truncation: with the default
    ``on_corrupt="raise"`` they raise :class:`ValueError`; with
    ``on_corrupt="warn"`` they are skipped with a warning — the mode
    the HTML dashboard uses, so a damaged log still renders.
    """
    if on_corrupt not in ("raise", "warn"):
        raise ValueError(
            f"on_corrupt must be 'raise' or 'warn', got {on_corrupt!r}"
        )
    header: dict | None = None
    steps: list[dict] = []
    summary: dict | None = None
    with Path(path).open() as f:
        lines = f.readlines()
    last_line_no = len(lines)
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            if line_no == last_line_no:
                warnings.warn(
                    f"{path}:{line_no}: skipping truncated final record "
                    f"({e})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if on_corrupt == "warn":
                warnings.warn(
                    f"{path}:{line_no}: skipping corrupt record ({e})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise ValueError(f"{path}:{line_no}: not valid JSON: {e}") from e
        kind = rec.get("type")
        if kind == "header":
            if rec.get("schema") != SCHEMA:
                raise ValueError(
                    f"{path}: unsupported run-log schema "
                    f"{rec.get('schema')!r} (expected {SCHEMA!r})"
                )
            header = rec
        elif kind == "step":
            steps.append(rec)
        elif kind == "summary":
            summary = rec
    if header is None:
        raise ValueError(f"{path}: no {SCHEMA!r} header record found")
    return header, steps, summary
