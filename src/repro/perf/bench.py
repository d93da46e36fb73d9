"""Benchmark regression harness behind ``repro bench``.

Declared *suites* of performance cases (DG Laplace vmult, vector
Laplace, a multigrid V-cycle and set-up, a full lung time step, the
ensemble axis, multi-worker scaling) run under one schema-versioned
document format::

    {
      "schema": "repro/bench/2",
      "suite": "ops",
      "smoke": false,
      "degree": 3,
      "fingerprint": {...},           # CPU, numpy/BLAS, git SHA, time
      "cases": [
        {"name": "box_r2/dg_laplace/planned",
         "n_dofs": 32768,
         "throughput": 2.8e6,         # canonical higher-is-better metric
         "throughput_units": "dofs/s",
         "meta": {...},
         "metrics": {"best_seconds": ..., "dofs_per_second": ..., ...}},
        ...
      ]
    }

:func:`compare_bench` joins two documents by case name and flags every
case whose throughput dropped by more than ``max_regression`` — the CI
perf gate (ASV-style continuous benchmarking at reproduction scale).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

BENCH_SCHEMA = "repro/bench/2"


# ---------------------------------------------------------------------------
# machine fingerprint
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _blas_name() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    try:  # older numpy: parse the first configured BLAS section
        from numpy.distutils.system_info import get_info  # type: ignore

        info = get_info("blas_opt")
        return ",".join(info.get("libraries", [])) or "unknown"
    except Exception:
        return "unknown"


def machine_fingerprint() -> dict:
    """Identify the machine and software stack a benchmark ran on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# case helpers
# ---------------------------------------------------------------------------

def _case(name: str, n_dofs: int, throughput: float, units: str,
          metrics: dict, meta: dict | None = None,
          dtype: str = "float64") -> dict:
    return {
        "name": name,
        "dtype": dtype,
        "n_dofs": int(n_dofs),
        "throughput": float(throughput),
        "throughput_units": units,
        "meta": meta or {},
        "metrics": metrics,
    }


def _throughput_case(name: str, result, meta: dict | None = None,
                     dtype: str = "float64") -> dict:
    """Case record from a :class:`~repro.perf.measure.ThroughputResult`."""
    metrics = {
        "best_seconds": result.best_seconds,
        "mean_seconds": result.mean_seconds,
        "std_seconds": result.std_seconds,
        "dofs_per_second": result.dofs_per_second,
        "repetitions": result.repetitions,
    }
    if result.alloc_peak_bytes is not None:
        metrics["alloc_peak_bytes"] = result.alloc_peak_bytes
        metrics["alloc_net_blocks"] = result.alloc_net_blocks
    return _case(name, result.n_dofs, result.dofs_per_second, "dofs/s",
                 metrics, meta, dtype)


def dtype_suffix(dtype) -> str:
    """Case-name suffix for a compute dtype: empty for the historical
    float64 cases (so old baselines keep matching by name), ``@float32``
    etc. otherwise."""
    ds = str(np.dtype(dtype))
    return "" if ds == "float64" else f"@{ds}"


def _box_forest(refinements: int):
    from ..mesh.generators import box
    from ..mesh.octree import Forest

    return Forest(
        box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
    ).refine_all(refinements)


def _bifurcation_forest(levels: int):
    from ..mesh.generators import bifurcation
    from ..mesh.octree import Forest

    return Forest(bifurcation()).refine_all(levels)


def _dg_laplace(forest, degree: int):
    from ..core.dof_handler import DGDofHandler
    from ..core.operators import DGLaplaceOperator
    from ..mesh.connectivity import build_connectivity
    from ..mesh.mapping import GeometryField

    geo = GeometryField(forest, degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, degree)
    return dof, geo, conn, DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))


def _always(_name: str) -> bool:
    return True


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_ops(smoke: bool, degree: int, select=_always,
               dtype: str = "float64") -> list[dict]:
    """Achieved-throughput suite on the planned execution path: the
    Figure 6-8 kernels plus one full coupled lung step."""
    from ..core.dof_handler import DGDofHandler
    from ..core.operators import VectorDGLaplace
    from ..solvers.multigrid import operator_to_dtype
    from .measure import measure_operator, measure_throughput

    ds = str(np.dtype(dtype))
    sfx = dtype_suffix(ds)
    refinements = 1 if smoke else 2
    reps = 3 if smoke else 10
    mesh_name = f"box_r{refinements}"
    forest = _box_forest(refinements)
    dof, geo, conn, op = _dg_laplace(forest, degree)
    meta = {"mesh": mesh_name, "n_cells": forest.n_cells, "degree": degree}
    cases: list[dict] = []

    name = f"{mesh_name}/dg_laplace_vmult{sfx}"
    if select(name):
        r = measure_operator(operator_to_dtype(op, ds), name=name,
                             repetitions=reps, dtype=ds)
        cases.append(_throughput_case(name, r, meta, ds))

    name = f"{mesh_name}/vector_laplace_vmult{sfx}"
    if select(name):
        dof_v = DGDofHandler(forest, degree, n_components=3)
        vec = VectorDGLaplace(op, dof_v)
        r = measure_operator(operator_to_dtype(vec, ds), name=name,
                             repetitions=max(2, reps // 2), dtype=ds)
        cases.append(_throughput_case(name, r, meta, ds))

    name = f"{mesh_name}/mg_vcycle{sfx}"
    if select(name):
        from ..solvers import HybridMultigridPreconditioner

        # the hybrid MG always smooths in single precision internally;
        # the dtype axis varies the residual vector handed to it
        mg = HybridMultigridPreconditioner(op)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(op.n_dofs).astype(ds)
        r = measure_throughput(
            lambda: mg.vmult(b), n_dofs=op.n_dofs, name=name,
            repetitions=max(2, reps // 2),
        )
        cases.append(_throughput_case(name, r, meta, ds))

    name = f"lung_g1/step{sfx}"
    if select(name):
        cases.append(_lung_step_case(name, smoke, ds))
    return cases


def _lung_step_case(name: str, smoke: bool, dtype: str = "float64") -> dict:
    from ..lung import LungVentilationSimulation
    from ..robustness import RunConfig

    cfg = RunConfig(generations=1, degree=2, seed=0, compute_dtype=dtype)
    sim = LungVentilationSimulation(cfg)
    n_dofs = sim.solver.dof_u.n_dofs + sim.solver.dof_p.n_dofs
    sim.step()  # warm-up: plan caches, preconditioner setup
    n_steps = 2 if smoke else 5
    seconds = []
    for _ in range(n_steps):
        t0 = time.perf_counter()
        sim.step()
        seconds.append(time.perf_counter() - t0)
    best = min(seconds)
    return _case(
        name,
        n_dofs,
        n_dofs / best,
        "dofs/s",
        {
            "best_seconds": best,
            "mean_seconds": sum(seconds) / len(seconds),
            "dofs_per_second": n_dofs / best,
            "repetitions": n_steps,
        },
        {"generations": 1, "degree": 2, "n_cells": sim.lung.forest.n_cells},
        dtype,
    )


def _suite_vmult(smoke: bool, degree: int, select=_always,
                 dtype: str = "float64") -> list[dict]:
    """DG/vector Laplace vmult and the multigrid setup path on two
    meshes, plus the ensemble-axis scaling cases: one batched ``(E, n)``
    vmult against ``E`` sequential single-member calls.  The
    ``/planned`` case names date from the planned-vs-legacy gate and
    are kept so documents of earlier PRs still join by name."""
    from ..core.dof_handler import DGDofHandler
    from ..core.operators import VectorDGLaplace
    from ..solvers.multigrid import operator_to_dtype
    from .measure import measure_operator, measure_throughput

    ds = str(np.dtype(dtype))
    sfx = dtype_suffix(ds)
    if smoke:
        meshes = [("box_r1", _box_forest(1), 3),
                  ("bifurcation_r0", _bifurcation_forest(0), 3)]
    else:
        meshes = [("box_r3", _box_forest(3), 10),
                  ("bifurcation_r1", _bifurcation_forest(1), 10)]

    cases: list[dict] = []
    for mesh_name, forest, reps in meshes:
        dof, geo, conn, op = _dg_laplace(forest, degree)
        dof_v = DGDofHandler(forest, degree, n_components=3)
        meta = {"mesh": mesh_name, "n_cells": forest.n_cells,
                "degree": degree, "mode": "planned",
                "metric": [len(op.laplace_d), len(op.face_data.b)]}

        def make_op():
            return _dg_laplace(forest, degree)[3]

        name = f"{mesh_name}/dg_laplace/planned{sfx}"
        if select(name):
            r = measure_operator(operator_to_dtype(make_op(), ds),
                                 name=name, repetitions=reps, dtype=ds)
            cases.append(_throughput_case(name, r, meta, ds))

        name = f"{mesh_name}/vector_laplace/planned{sfx}"
        if select(name):
            vec = VectorDGLaplace(make_op(), dof_v)
            r = measure_operator(operator_to_dtype(vec, ds), name=name,
                                 repetitions=max(2, reps // 2), dtype=ds)
            cases.append(_throughput_case(name, r, meta, ds))

        name = f"{mesh_name}/mg_setup/planned{sfx}"
        if select(name):
            sec = _measure_mg_setup(make_op, repetitions=min(3, reps),
                                    dtype=ds)
            cases.append(_case(
                name, dof.n_dofs, 1.0 / sec, "setups/s",
                {"best_seconds": sec}, meta, ds,
            ))

    # ensemble-axis scaling: a single batched (E, n) vmult amortizes the
    # per-call dispatch/scatter overhead over all members; the
    # sequential_e8 reference is 8 single-member calls.  Pinned to the
    # small box_r1 mesh — the strong-scaling-limit regime (small
    # per-member problem, overhead-dominated) the ensemble axis targets;
    # at cache-exceeding sizes the batched path is memory-bound and the
    # axis buys nothing.
    reps = meshes[0][2]
    mesh_name, forest = "box_r1", _box_forest(1)
    _, _, _, op = _dg_laplace(forest, degree)
    op = operator_to_dtype(op, ds)
    e_meta = {"mesh": mesh_name, "n_cells": forest.n_cells, "degree": degree,
              "metric": [len(op.laplace_d), len(op.face_data.b)]}
    rng = np.random.default_rng(0)
    for mode, members in [("ensemble", e) for e in (1, 2, 4, 8)] + [("sequential", 8)]:
        name = f"{mesh_name}/dg_laplace/{mode}_e{members}{sfx}"
        if not select(name):
            continue
        x = rng.standard_normal((members, op.n_dofs)).astype(ds)
        # one (E, n) call, or E flat ones
        calls = [x] if mode == "ensemble" else list(x)
        r = measure_throughput(
            lambda: [op.vmult(v) for v in calls], n_dofs=members * op.n_dofs,
            name=name, repetitions=reps,
        )
        cases.append(_throughput_case(
            name, r, dict(e_meta, mode=mode, members=members), ds))
    return cases


def _measure_mg_setup(make_op, repetitions: int = 3,
                      dtype: str = "float64") -> float:
    """Best wall time of the multigrid setup path on a fresh operator:
    diagonal + Jacobi + Chebyshev/Lanczos construction."""
    from ..solvers.chebyshev import ChebyshevSmoother
    from ..solvers.jacobi import JacobiPreconditioner
    from ..solvers.multigrid import operator_to_dtype

    best = float("inf")
    for _ in range(repetitions):
        op = operator_to_dtype(make_op(), dtype)
        t0 = time.perf_counter()
        jac = JacobiPreconditioner(op, dtype=np.dtype(dtype))
        ChebyshevSmoother(op, degree=3, jacobi=jac)
        best = min(best, time.perf_counter() - t0)
    return best


def _suite_ensemble(smoke: bool, degree: int, select=_always,
                    dtype: str = "float64") -> list[dict]:
    """Full coupled lung steps on the ensemble axis: E=4 members batched
    through one solver setup versus the same members as independent
    sequential simulations.  The throughput metric is aggregate DoF/s
    (members x DoF per step time), so the two cases are directly
    comparable."""
    from ..lung import LungVentilationSimulation as Sim
    from ..robustness import RunConfig

    ds = str(np.dtype(dtype))
    sfx = dtype_suffix(ds)
    members = 4
    n_steps = 2 if smoke else 5
    cfg = RunConfig(generations=1, degree=2, seed=0, compute_dtype=ds)
    meta = {"generations": 1, "degree": 2, "members": members}
    cases: list[dict] = []
    for mode, build in (
        ("ensemble", lambda: [Sim([cfg] * members)]),
        ("sequential", lambda: [Sim(cfg) for _ in range(members)]),
    ):
        name = f"lung_g1/{mode}_step_e{members}{sfx}"
        if not select(name):
            continue
        sims = build()
        n_dofs = sims[0].solver.dof_u.n_dofs + sims[0].solver.dof_p.n_dofs
        for s in sims:
            s.step()  # warm-up: plan caches, preconditioner setup
        seconds = []
        for _ in range(n_steps):
            t0 = time.perf_counter()
            for s in sims:
                s.step()
            seconds.append(time.perf_counter() - t0)
        best = min(seconds)
        cases.append(_case(
            name, members * n_dofs, members * n_dofs / best, "dofs/s",
            {
                "best_seconds": best,
                "mean_seconds": sum(seconds) / len(seconds),
                "dofs_per_second": members * n_dofs / best,
                "repetitions": n_steps,
            },
            dict(meta, mode=mode, n_cells=sims[0].lung.forest.n_cells),
            ds,
        ))
    return cases


def _suite_scaling(smoke: bool, degree: int, select=_always,
                   dtype: str = "float64") -> list[dict]:
    """Measured multi-worker vmult wall-times next to the calibrated
    :class:`~repro.parallel.MatvecScalingModel` predictions — the PR
    that turns the performance model from fiction into a tested
    contract.

    One serial baseline plus 2- and 4-worker
    :class:`~repro.parallel.WorkerPool` runs on the compute-bound box
    mesh.  The model's node throughput is calibrated from the measured
    serial time (``matvec_dofs_per_s_k3`` of a LOCAL_PYTHON variant),
    so its multi-worker predictions isolate exactly the partition /
    communication / overlap terms the real runtime implements; each
    case's ``meta`` records prediction, measured speedup, and
    ``available_cores`` (oversubscribed pools cannot beat 1x, which the
    smoke gate accounts for)."""
    import dataclasses

    from ..parallel import LOCAL_PYTHON, MatvecScalingModel, partition_stats
    from ..parallel.runtime import WorkerPool
    from ..solvers.multigrid import operator_to_dtype

    ds = str(np.dtype(dtype))
    sfx = dtype_suffix(ds)
    # the full suite needs a workload large enough that one vmult
    # dominates the ~ms pool dispatch round-trip (compute-bound regime)
    refinements = 1 if smoke else 3
    reps = 3 if smoke else 10
    mesh_name = f"box_r{refinements}"
    forest = _box_forest(refinements)
    dof, geo, conn, op64 = _dg_laplace(forest, degree)
    op = operator_to_dtype(op64, ds)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(op.n_dofs).astype(ds)
    try:
        avail = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        avail = os.cpu_count() or 1

    op.vmult(x)  # warm the plan caches before timing
    t_serial = min(
        _timed(lambda: op.vmult(x)) for _ in range(reps)
    )
    machine = dataclasses.replace(
        LOCAL_PYTHON, matvec_dofs_per_s_k3=op.n_dofs / t_serial
    )
    model = MatvecScalingModel(machine=machine, degree=degree)
    # re-anchor so the 1-worker prediction reproduces the measured
    # serial time exactly (time() is linear in 1/matvec_dofs_per_s_k3,
    # and the cache-boost factor depends only on the working set)
    machine = dataclasses.replace(
        machine,
        matvec_dofs_per_s_k3=(machine.matvec_dofs_per_s_k3
                              * model.time(op.n_dofs, 1) / t_serial),
    )
    model = MatvecScalingModel(machine=machine, degree=degree)
    meta = {
        "mesh": mesh_name, "n_cells": forest.n_cells, "degree": degree,
        "available_cores": avail,
    }
    cases: list[dict] = []

    name = f"{mesh_name}/dist_vmult_w1{sfx}"
    if select(name):
        cases.append(_case(
            name, op.n_dofs, op.n_dofs / t_serial, "dofs/s",
            {"best_seconds": t_serial, "repetitions": reps,
             "dofs_per_second": op.n_dofs / t_serial},
            dict(meta, workers=1, mode="serial",
                 predicted_seconds=model.time(op.n_dofs, 1)),
            ds,
        ))

    for workers in (2, 4):
        name = f"{mesh_name}/dist_vmult_w{workers}{sfx}"
        if not select(name):
            continue
        stats = partition_stats(forest, conn, workers)
        pool = WorkerPool(workers)
        pool.register("op", op)
        with pool:
            census = pool.census()
            pool.vmult("op", x)  # warm the per-worker plan caches
            t_best = min(
                _timed(lambda: pool.vmult("op", x)) for _ in range(reps)
            )
        msg_bytes = (census.bytes_total / max(census.n_messages, 1)
                     if census.n_messages else 0.0)
        predicted = model.time(
            op.n_dofs, workers,
            n_neighbors=stats.max_neighbors(),
            message_bytes=msg_bytes,
        )
        cases.append(_case(
            name, op.n_dofs, op.n_dofs / t_best, "dofs/s",
            {"best_seconds": t_best, "repetitions": reps,
             "dofs_per_second": op.n_dofs / t_best},
            dict(
                meta, workers=workers, mode="distributed",
                predicted_seconds=predicted,
                predicted_speedup=t_serial / predicted,
                measured_speedup=t_serial / t_best,
                n_messages=census.n_messages,
                ghost_bytes=census.bytes_total,
                max_neighbors=stats.max_neighbors(),
            ),
            ds,
        ))
    return cases


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


#: Declared benchmark suites: name -> runner(smoke, degree, select).
SUITES = {
    "ops": _suite_ops,
    "vmult": _suite_vmult,
    "ensemble": _suite_ensemble,
    "scaling": _suite_scaling,
}


def run_suite(suite: str, smoke: bool = False, degree: int = 3,
              case_filter: str | None = None,
              dtype: str = "float64") -> dict:
    """Run one declared suite and return the schema-versioned document.

    ``dtype`` selects the compute precision of the measured kernels
    (``float64``/``float32``); non-double cases carry an ``@<dtype>``
    name suffix and a per-case ``dtype`` field, so documents at
    different precisions merge and compare cleanly."""
    try:
        runner = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r} (have: {', '.join(sorted(SUITES))})"
        )
    ds = str(np.dtype(dtype))
    select = _always if case_filter is None else (
        lambda name: case_filter in name
    )
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "smoke": bool(smoke),
        "degree": degree,
        "dtype": ds,
        "fingerprint": machine_fingerprint(),
        "cases": runner(smoke, degree, select, ds),
    }


def load_bench(path) -> dict:
    """Read a benchmark document; anything but the current schema is
    rejected."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported benchmark schema {doc.get('schema')!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    return doc


# ---------------------------------------------------------------------------
# regression comparison
# ---------------------------------------------------------------------------

def compare_bench(current: dict, baseline: dict,
                  max_regression: float = 0.15) -> dict:
    """Join two benchmark documents by case name and flag throughput
    regressions beyond ``max_regression`` (fractional drop).

    Cases missing from either side or measured at a different problem
    size are *skipped with a reason*, never silently compared.
    """
    def key(c: dict):
        # join by (name, dtype); pre-dtype baselines are all float64
        return (c["name"], c.get("dtype", "float64"))

    base_by_name = {key(c): c for c in baseline.get("cases", [])}
    regressions, improvements, ok, skipped = [], [], [], []
    seen = set()
    for cur in current.get("cases", []):
        name = cur["name"]
        seen.add(key(cur))
        base = base_by_name.get(key(cur))
        if base is None:
            skipped.append({"name": name, "reason": "not in baseline"})
            continue
        if base.get("n_dofs") != cur.get("n_dofs"):
            skipped.append({
                "name": name,
                "reason": f"n_dofs mismatch (baseline {base.get('n_dofs')}, "
                          f"current {cur.get('n_dofs')})",
            })
            continue
        b, c = base["throughput"], cur["throughput"]
        if b <= 0:
            skipped.append({"name": name, "reason": "non-positive baseline"})
            continue
        ratio = c / b
        entry = {"name": name, "baseline": b, "current": c, "ratio": ratio,
                 "units": cur.get("throughput_units", "")}
        if ratio < 1.0 - max_regression:
            regressions.append(entry)
        elif ratio > 1.0 + max_regression:
            improvements.append(entry)
        else:
            ok.append(entry)
    for (name, _dt), _case_ in base_by_name.items():
        if key(_case_) not in seen:
            skipped.append({"name": name, "reason": "not in current run"})
    return {
        "max_regression": max_regression,
        "regressions": regressions,
        "improvements": improvements,
        "unchanged": ok,
        "skipped": skipped,
        "ok": not regressions,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_bench(doc: dict) -> str:
    """Plain-text table of one benchmark document."""
    fp = doc.get("fingerprint", {})
    head = (f"suite {doc.get('suite')} (schema {doc.get('schema')}"
            + (", smoke" if doc.get("smoke") else "") + ")")
    sha = fp.get("git_sha")
    if sha:
        head += f" @ {sha[:12]}"
    lines = [
        head,
        f"{'case':<36s} {'DoF':>9s} {'best [s]':>11s} {'throughput':>14s}",
    ]
    for c in doc.get("cases", []):
        best = c.get("metrics", {}).get("best_seconds")
        best_s = f"{best:>11.4e}" if best is not None else f"{'-':>11s}"
        lines.append(
            f"{c['name']:<36s} {c['n_dofs']:>9d} {best_s} "
            f"{c['throughput']:>10.4g} {c.get('throughput_units', '')}"
        )
    return "\n".join(lines)


def render_compare(report: dict) -> str:
    """Plain-text view of a :func:`compare_bench` report."""
    lines = [
        f"regression threshold: {report['max_regression']:.0%} "
        f"({'PASS' if report['ok'] else 'FAIL'})"
    ]

    def rows(title, entries, mark):
        if not entries:
            return
        lines.append(f"{title}:")
        for e in entries:
            lines.append(
                f"  {mark} {e['name']:<36s} {e['baseline']:>10.4g} -> "
                f"{e['current']:>10.4g} {e.get('units', '')} "
                f"({e['ratio'] - 1.0:+.1%})"
            )

    rows("regressions", report["regressions"], "!")
    rows("improvements", report["improvements"], "+")
    rows("within threshold", report["unchanged"], "=")
    if report["skipped"]:
        lines.append("skipped:")
        for s in report["skipped"]:
            lines.append(f"  ? {s['name']}: {s['reason']}")
    return "\n".join(lines)
