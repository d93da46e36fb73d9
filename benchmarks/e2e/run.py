#!/usr/bin/env python3
"""End-to-end benchmark of the repro DG solver: four workloads, three
gated end-to-end metrics plus failure accounting, and an outside-in
per-layer trace.  ``README.md`` beside this file is the manual.

    python3 benchmarks/e2e/run.py [--seed N]            # the full document
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --self-test
    python3 benchmarks/e2e/run.py --compare A.json B.json [--force]

Every measurement runs in a fresh subprocess of this same file
(``--child``) with BLAS/OpenMP pinned to one thread before numpy loads;
this driver process only spawns, pools and prints, and never imports the
solver.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402  (stdlib-only siblings)
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, SCHEMA, UNITS, WORKLOAD_NAMES  # noqa: E402

#: the only multi-process workload uses 2 workers + a blocked master on
#: nproc = 2, so one BLAS thread per process is the whole machine
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: fresh processes one ``--workload`` run pools (the median of three set-ups)
ROUNDS_PER_RUN = 3
#: interleaved rounds of the full document, each of the workload's ``timed_ops``
ROUNDS_FULL = 5
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# child: one workload, one fresh process
# ----------------------------------------------------------------------

def measure(wl, rec, trace: bool, seconds: float, t0: float) -> dict:
    """One round of ``wl`` in this process: build, warm-up ops, timed
    ops, checks, teardown.  ``seconds`` > 0 is a time budget for the
    timed ops (at least ``wl.min_timed_ops`` of them, and past that never
    one that would overrun it); 0 asks for exactly ``wl.timed_ops``, so
    the counts of a full-document or traced round repeat."""
    import gc
    import traceback

    rec.active = trace
    with rec.span("harness.build"):
        wl.build()
    rec.active = False

    samples, infos, failures = [], [], []
    attempted = failed = 0
    setup_s = None
    k = 0
    while True:
        if k == wl.warmup_ops:
            wl.timed_ops_start()
        rec.op = k
        attempted += 1
        rec.active = trace
        t = time.perf_counter()
        try:
            with rec.span("harness.op"):
                result = wl.op(k)
        except Exception:
            result = None
            failures.append(f"op {k} raised: {traceback.format_exc(limit=4)}")
        done = time.perf_counter()
        rec.active = False
        if result is None:
            failed += 1
            break  # a stateful workload cannot go on
        problems, info = wl.check(k, result)
        if problems:
            failed += 1
            failures += problems
        if k == 0:
            setup_s = done - t0
        if k >= wl.warmup_ops:
            samples.append(done - t)
            infos.append(info)
        k += 1
        del result
        gc.collect()  # every op starts from the same heap, so peak RSS does not depend on the op count
        if seconds > 0:
            if len(samples) >= wl.min_timed_ops and sum(samples) + stats.median(samples) > seconds:
                break
        elif len(samples) >= wl.timed_ops:
            break

    out = {"workload": wl.name, "traced": trace, "setup_s": setup_s, "op_s_samples": samples,
           "attempted": attempted}
    if trace:
        import layers

        # every traced round reports every metric, so a round whose ops
        # raised still pools and prints (as zeros) next to its failures
        out["per_layer"] = {name: 0.0 for name, _, _ in PER_LAYER}
        out["machine"] = {}
        if samples:
            timed_ops = range(wl.warmup_ops, wl.warmup_ops + len(samples))
            machine = layers.probe_machine()
            out["per_layer"] = layers.derive(rec, timed_ops, samples, infos, machine)
            out["per_layer"].update(layers.probe_kernels(wl))
            out["per_layer"].update(wl.extra_layer_metrics(len(samples)))
            for key, value in machine.items():
                out["per_layer" if key.startswith("machine.") else "machine"][key] = value
    end_problems, end_metrics = wl.finish()
    if end_problems and not failures:
        failed += 1  # charged to the last op: the run did not end clean
    if trace:
        out["per_layer"].update(end_metrics)
    out["failed"] = failed
    out["failures"] = failures + end_problems
    return out


def child_main(args) -> int:
    t0 = time.perf_counter()  # just before ``import repro``: setup_s starts here
    import resource

    import repro  # noqa: F401
    from repro.telemetry import METRICS, TRACER

    import tracing
    from workloads import WORKLOADS

    telemetry_on = bool(TRACER.enabled or METRICS.enabled)
    rec = tracing.Recorder()
    if args.trace:
        tracing.install(rec)
    wl = WORKLOADS[args.child](args.seed, args.round)
    out = measure(wl, rec, bool(args.trace), args.seconds, t0)
    out.update(seed=args.seed, round=args.round)
    if args.trace:
        out["environment"] = environment()
        RESULTS.mkdir(exist_ok=True)
        rec.dump(RESULTS / f"trace_{wl.name}.json")
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    if telemetry_on or TRACER.enabled or METRICS.enabled:
        # the end-to-end numbers are defined with the solver's own
        # telemetry off; a default that turns it on must not pass silently
        out["failures"].append("repro.telemetry TRACER/METRICS is enabled in the benchmark process")
        out["failed"] = max(out["failed"], 1)
    print(json.dumps(out))
    return 0


def environment() -> dict:
    """What two result documents must share to be comparable."""
    from layers import cache_bytes
    from repro.perf.bench import machine_fingerprint

    return {
        "fingerprint": machine_fingerprint(),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
        "cache_bytes": cache_bytes(),
    }


# ----------------------------------------------------------------------
# driver: spawn rounds, pool them
# ----------------------------------------------------------------------

def run_round(workload: str, seed: int, round_index: int, seconds: float, trace: bool) -> dict:
    """One fresh pinned subprocess; returns its result record."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "run.py"), "--child", workload, "--seed", str(seed),
           "--round", str(round_index), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} round {round_index}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool(rounds: list[dict]) -> dict:
    """End-to-end metrics and failure accounting over untraced rounds."""
    samples = [s for r in rounds for s in r["op_s_samples"]]
    # a round whose first op raised has neither a set-up time nor samples
    setups = [r["setup_s"] for r in rounds if r["setup_s"] is not None]
    rss = [r["peak_rss_mb"] for r in rounds]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    percentile, tail_value = stats.tail(samples) if samples else (0.0, 0.0)
    return {
        "end_to_end": {
            "setup_s": stats.median(setups) if setups else 0.0,
            "op_s": stats.median(samples) if samples else 0.0,
            "peak_rss_mb": stats.median(rss),
        },
        "spread": {"setup_s": stats.iqr(setups), "op_s": stats.iqr(samples),
                   "peak_rss_mb": stats.iqr(rss)},
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "failures": [f for r in rounds for f in r["failures"]],
        "harness": {
            "harness.samples": float(len(samples)),
            "harness.op_s_tail": tail_value,
            "harness.tail_percentile": percentile,
            "harness.op_s_iqr": stats.iqr(samples),
        },
    }


def loadavg() -> float:
    return os.getloadavg()[0]


def traced_layers(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of a traced round, completed by the harness
    metrics that need the untraced rounds next to it."""
    metrics = dict(traced["per_layer"])
    metrics.update(untraced["harness"])
    plain = untraced["end_to_end"]["op_s"]
    if plain and traced["op_s_samples"]:
        metrics["harness.trace_overhead_share"] = stats.median(traced["op_s_samples"]) / plain - 1.0
    metrics["harness.loadavg"] = loadavg()
    return metrics


def workload_result(rounds: list[dict], trace: bool) -> dict:
    """The contract's result object from the rounds of one ``--workload``
    run (``--trace 1``: the last round is the traced one)."""
    if trace:
        metrics, units = traced_layers(rounds[-1], pool(rounds[:-1])), UNITS
    else:
        metrics = pool(rounds)["end_to_end"]
        units = {name: unit for name, unit, _, _ in END_TO_END}
    failed = sum(r["failed"] for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_workload(args) -> int:
    """The benchmark contract: one workload, one JSON result line."""
    per_round = args.seconds / ROUNDS_PER_RUN
    if args.trace:
        rounds = [run_round(args.workload, args.seed, 0, per_round, False),
                  run_round(args.workload, args.seed, 0, 0.0, True)]
    else:
        rounds = [run_round(args.workload, args.seed, i, per_round, False)
                  for i in range(ROUNDS_PER_RUN)]
    for r in rounds:
        for failure in r["failures"]:
            print("FAILED CHECK:", failure, file=sys.stderr)
    result = workload_result(rounds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_full(args) -> int:
    """Every workload: interleaved untraced rounds, then one traced round
    each; prints every metric and writes one result document."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    load_start = loadavg()
    rounds: dict[str, list] = {w: [] for w in WORKLOAD_NAMES}
    for i in range(ROUNDS_FULL):
        # A B C D A B C D ...: a noisy-neighbour burst lands on a slice
        # of every workload instead of on all of one
        for w in WORKLOAD_NAMES:
            print(f"[round {i + 1}/{ROUNDS_FULL}] {w}", file=sys.stderr, flush=True)
            rounds[w].append(run_round(w, args.seed, i, 0.0, False))
    doc = {"schema": SCHEMA, "started": started, "seed": args.seed, "rounds": ROUNDS_FULL,
           "workloads": {}}
    exit_code = 0
    for w in WORKLOAD_NAMES:
        print(f"[traced] {w}", file=sys.stderr, flush=True)
        traced = run_round(w, args.seed, 0, 0.0, True)
        pooled = pool(rounds[w])
        pooled["per_layer"] = traced_layers(traced, pooled)
        pooled["traced_failures"] = traced["failures"]
        pooled["rounds"] = [{k: r[k] for k in ("round", "setup_s", "op_s_samples", "peak_rss_mb")}
                            for r in rounds[w]]
        pooled["machine"] = traced["machine"]
        doc["workloads"][w] = pooled
        doc["environment"] = traced["environment"]
        if pooled["failed"] or traced["failed"]:
            exit_code = 1
    doc["environment"]["loadavg_start"] = load_start
    doc["environment"]["loadavg_end"] = loadavg()

    for w, pooled in doc["workloads"].items():
        print(f"\n== {w} ==")
        for name, unit, _, bound in END_TO_END:
            value, iqr = pooled["end_to_end"][name], pooled["spread"][name]
            print(f"{name:<48s} {value:>14.6g} {unit:<10s}"
                  f" quartile spread {iqr / value if value else 0.0:.1%} (bound {bound:.0%})")
        print(f"{'failed_ops_share':<48s} {pooled['failed_ops_share']:>14.6g} {'ratio':<10s}"
              f" {pooled['failed']} of {pooled['attempted']} ops")
        for name, unit, _ in PER_LAYER:
            print(f"{name:<48s} {pooled['per_layer'][name]:>14.6g} {unit}")
        for failure in pooled["failures"] + pooled["traced_failures"]:
            print("FAILED CHECK:", failure)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"e2e_{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nresult document: {out}")
    return exit_code


def self_test() -> int:
    import unittest

    env_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONPATH"] = env_path
    sys.path.insert(0, str(SRC))
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"), pattern="selftest_*.py")
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() and result.testsRun else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload and print one JSON result line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                   help=f"timed seconds of a --workload run, split over its {ROUNDS_PER_RUN} rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--force", action="store_true", help="compare across different machine fingerprints")
    p.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    p.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.child:
        return child_main(args)
    if args.self_test:
        return self_test()
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare, force=args.force)
    if args.workload:
        return run_workload(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
