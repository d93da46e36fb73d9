"""Per-layer metrics of the traced run: the micro-probes that time a
kernel on the workload's own batch shape, and the derivation of every
metric of ``spec.PER_LAYER`` from the span log.

Every traced run reports every metric.  A time or count of a layer the
workload never enters is a true 0; a ratio that has no meaning on a
workload (a roofline fraction without a Laplace mat-vec, a speed-up
without a worker pool) is reported as 0 as well.
"""

from __future__ import annotations

import glob
import statistics
from time import perf_counter

import numpy as np

from spec import MAX_MG_LEVEL, PER_LAYER, PHASES
from tracing import BUILD, OP, span_cost_seconds, summarize

# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------

def _timed(fn) -> float:
    t = perf_counter()
    fn()
    return perf_counter() - t


def _median_seconds(fn, reps: int) -> float:
    fn()  # first call pays allocation / BLAS thread start-up
    return statistics.median(_timed(fn) for _ in range(reps))


def cache_bytes() -> dict[str, int]:
    """Size of every cache level ``/sys`` reports for cpu0, keyed like
    ``L2 Unified`` (empty if the hierarchy is not exposed)."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        def read(name, index=index):
            with open(f"{index}/{name}") as fh:
                return fh.read().strip()

        text = read("size")
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes[f"L{read('level')} {read('type')}"] = int(text.rstrip("KMG")) * mult
    return sizes


def llc_bytes() -> int:
    """The largest cache level of :func:`cache_bytes` (0 if none)."""
    return max(cache_bytes().values(), default=0)


def _mem_available_bytes() -> int:
    for line in open("/proc/meminfo"):
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) << 10
    return 0


def probe_machine() -> dict:
    """The roofline denominators, measured in this process: triad
    bandwidth on arrays of 4x the last-level cache, and GEMM rates.

    The triad is numpy's two-pass form ``a = s * c; a += b``; its 40
    computed bytes per element (2 reads + 1 write, then 1 read + 1 write)
    ignore write-allocate traffic.  When memory cannot hold three arrays
    of 4x the LLC they shrink, ``triad_valid`` turns false and no
    roofline fraction is derived from the number."""
    llc = llc_bytes()
    want = 4 * llc if llc else 256 << 20
    fits = 3 * want <= _mem_available_bytes() // 2
    array_bytes = want if fits else 64 << 20
    n = array_bytes // 8
    a, b, c = np.empty(n), np.ones(n), np.ones(n)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    best = min(_timed(triad) for _ in range(3))
    out = {"llc_bytes": llc, "triad_array_bytes": int(n * 8),
           "triad_valid": bool(fits and llc),
           "machine.triad_gb_s": 40.0 * n / best / 1e9}
    del a, b, c
    m = 512
    for dtype, key in ((np.float64, "machine.dgemm_gflop_s"), (np.float32, "machine.sgemm_gflop_s")):
        x = np.ones((m, m), dtype=dtype)
        best = min(_timed(lambda: x @ x) for _ in range(8))
        out[key] = 2.0 * m**3 / best / 1e9
    return out


def probe_kernels(wl) -> dict:
    """One sum-factorization sweep and one face scatter-add on the
    workload's own batch shapes."""
    from repro.core.plans import ScatterPlan
    from repro.core.sum_factorization import apply_1d

    n_cells, n1 = wl.kernel_batch()
    rng = np.random.default_rng(0)
    out = {}
    for dtype, key in ((np.float64, "sweep_s"), (np.float32, "sweep_f32_s")):
        M = rng.standard_normal((n1, n1)).astype(dtype)
        u = rng.standard_normal((n_cells, n1, n1, n1)).astype(dtype)
        per_axis = [_median_seconds(lambda d=d: apply_1d(M, u, d), 30) for d in range(3)]
        out["core.sum_factorization." + key] = statistics.fmean(per_axis)
    out["core.sum_factorization.sweep_gflop_s"] = (
        2.0 * n1 * n_cells * n1**3 / out["core.sum_factorization.sweep_s"] / 1e9)
    cells, n_rows = wl.face_scatter()
    plan = ScatterPlan(cells, n_rows)
    target = np.zeros((n_rows, n1, n1, n1))
    contrib = rng.standard_normal((len(cells), n1, n1, n1))
    out["core.plans.scatter_s"] = _median_seconds(lambda: plan.add(target, contrib), 30)
    return out


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------

def derive(rec, timed_ops, walls, infos, machine: dict) -> dict:
    """Per-layer metrics from the span log of one traced process.

    ``timed_ops`` are the op ids behind ``walls`` (their wall seconds)
    and ``infos`` (what each op's check reported).  Op-type metrics are
    means per timed op; construction-type metrics add what the
    construction phase (before op 0) spent to the per-op mean, so they
    show wherever the workload pays them."""
    n = len(timed_ops)
    per_op = summarize(rec.spans, timed_ops)
    build = summarize(rec.spans, [BUILD])

    def op_(name, field="incl"):
        return per_op.get(name, {}).get(field, 0.0) / n

    def setup_(name):
        return build.get(name, {}).get("incl", 0.0) + op_(name)

    def total(key):
        return sum(i.get(key, 0) for i in infos)

    steps = total("steps")
    per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)

    dg = "core.operators.dg_laplace."
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["mesh.connectivity_s"] = setup_("mesh.connectivity")
    m["mesh.geometry_s"] = setup_("mesh.geometry")
    m[dg + "construct_s"] = setup_(dg + "construct")
    m[dg + "diagonal_s"] = setup_(dg + "diagonal")
    m[dg + "vmult_s"] = op_(dg + "vmult")
    m[dg + "vmult_f32_s"] = op_(dg + "vmult_f32")
    m[dg + "vmult_calls"] = op_(dg + "vmult", "calls") + op_(dg + "vmult_f32", "calls")
    f64, f32 = per_op.get(dg + "vmult"), per_op.get(dg + "vmult_f32")
    main = f64 or f32
    if main:
        m[dg + "flops_per_vmult"] = main["flops"] / main["calls"]
        m[dg + "bytes_per_vmult_computed"] = main["bytes"] / main["calls"]
    for agg, sfx, peak in ((f64, "", "machine.dgemm_gflop_s"), (f32, "_f32", "machine.sgemm_gflop_s")):
        if agg and agg["incl"] > 0:
            gflops = agg["flops"] / agg["incl"] / 1e9
            m[f"{dg}gflop{sfx}_s"] = gflops
            if machine["triad_valid"] and agg["bytes"] > 0:
                bound = min(machine[peak],
                            machine["machine.triad_gb_s"] * agg["flops"] / agg["bytes"])
                m[f"{dg}roofline_fraction{sfx}"] = gflops / bound

    for metric, span in (
        ("core.operators.convective.step_s", "core.operators.convective.apply"),
        ("core.operators.grad_div.gradient_step_s", "core.operators.grad_div.gradient"),
        ("core.operators.grad_div.divergence_step_s", "core.operators.grad_div.divergence"),
        ("core.operators.helmholtz.step_s", "core.operators.helmholtz.vmult"),
        ("core.operators.penalty.step_s", "core.operators.penalty.vmult"),
        ("core.operators.mass.inverse_step_s", "core.operators.mass.inverse"),
    ):
        m[metric] = per_step(n * op_(span))
    for layer in ("convective", "helmholtz", "penalty"):
        span = f"core.operators.{layer}." + ("apply" if layer == "convective" else "vmult")
        m[f"core.operators.{layer}.calls"] = per_step(n * op_(span, "calls"))

    m["solvers.krylov.iterations"] = total("iterations") / n
    m["solvers.krylov.self_s"] = op_("solvers.krylov.cg", "self")
    m["solvers.krylov.nonconverged_share"] = total("nonconverged") / max(total("solves"), 1)

    m["solvers.multigrid.setup_s"] = setup_("solvers.multigrid.setup")
    level = "solvers.multigrid.level{}".format
    m["solvers.multigrid.vcycle_s"] = op_(level(0))
    m["solvers.multigrid.vcycle_calls"] = op_(level(0), "calls")
    m["solvers.multigrid.nonfinite_vcycles"] = total("nonfinite_vcycles") / n
    for i in range(MAX_MG_LEVEL + 1):
        transfer = op_(level(i) + ".transfer")
        coarser = op_(level(i + 1)) if i < MAX_MG_LEVEL else 0.0
        # a level's own time: its span minus the coarser levels and the
        # transfers to and from them (the deepest metric level keeps
        # whatever lies below it)
        m[f"solvers.multigrid.level{i}.self_s"] = op_(level(i)) - coarser - transfer
        if i < MAX_MG_LEVEL:
            m[f"solvers.multigrid.level{i}.transfer_s"] = transfer
    m["solvers.chebyshev.smooth_s"] = op_("solvers.chebyshev.smooth")
    m["solvers.chebyshev.smooth_calls"] = op_("solvers.chebyshev.smooth", "calls")
    m["solvers.amg.coarse_s"] = op_("solvers.amg.coarse")
    m["solvers.amg.calls"] = op_("solvers.amg.coarse", "calls")

    m["timeint.dual_splitting.self_s"] = per_step(n * op_("timeint.dual_splitting.step", "self"))
    for key in ("pressure_iterations", "viscous_iterations", "penalty_iterations"):
        m["timeint.dual_splitting." + key] = per_step(total(key))
    m["timeint.dual_splitting.penalty_maxiter_share"] = per_step(total("penalty_maxiter_steps"))
    m["ns.solver.construct_s"] = setup_("ns.solver.construct")
    m["ns.solver.step_self_s"] = per_step(n * op_("ns.solver.step", "self"))
    m["lung.mesh_build_s"] = op_("lung.mesh_build")
    m["lung.construct_s"] = op_("lung.construct")
    m["lung.coupling_s"] = op_("lung.step", "self")
    m["robustness.recovery_events"] = total("recovery_events") / n
    m["robustness.fallback_escalations"] = total("fallback_escalations") / n

    m["parallel.runtime.pool_start_s"] = setup_("parallel.runtime.pool_start")
    m["parallel.runtime.vmult_s"] = op_("parallel.runtime.vmult")
    m["harness.unattributed_share"] = op_("harness.op", "self") * n / sum(walls)
    # the tracing overhead as a count: unlike traced-minus-untraced op_s
    # it does not inherit the machine's run-to-run spread
    ops = set(timed_ops)
    m["harness.spans_per_op"] = sum(s[OP] in ops for s in rec.spans) / n
    m["harness.span_cost_share"] = m["harness.spans_per_op"] * span_cost_seconds() * n / sum(walls)
    return m


def runtime_metrics(context, phases_before: dict, n_ops: int) -> dict:
    """What the worker pool itself reports: the exchange census, the
    payload it ships, and per-rank phase seconds over the timed ops."""
    rt = "parallel.runtime."
    after = context.worker_phase_totals()
    ranks = sorted(after)
    delta = {r: {p: after[r].get(p, 0.0) - phases_before.get(r, {}).get(p, 0.0) for p in PHASES}
             for r in ranks}
    m = {
        rt + "messages_per_vmult": float(context.census.n_messages),
        rt + "payload_bytes_per_vmult": float(context.pool.plan.payload_bytes()),
        rt + "census_bytes_per_vmult": float(context.census.bytes_total),
    }
    for p in PHASES:
        # mean over ranks of the seconds one op spends in the phase
        m[f"{rt}phase.{p}_s"] = statistics.fmean(delta[r][p] for r in ranks) / n_ops
    busy = sum(m[f"{rt}phase.{p}_s"] for p in PHASES)
    m[rt + "wait_share"] = m[rt + "phase.wait_s"] / busy
    interior = [delta[r]["interior"] for r in ranks]
    m[rt + "interior_imbalance"] = max(interior) / statistics.fmean(interior) - 1.0
    return m
