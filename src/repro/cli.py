"""Command-line interface: ``python -m repro <command>``.

Small drivers over the library for the workflows a user reaches for
first — a Poisson solve with the hybrid multigrid, the analytic
Navier-Stokes validation, a ventilated-lung run (one parameter set or a
sweep of members advanced together), the scaling model, and airway-mesh
generation with VTK export.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

# mirrors repro.perf.attribution.MACHINES (kept literal so building the
# parser does not import the solver stack; a test asserts they agree)
_MACHINE_NAMES = ("local", "supermuc-ng", "summit-v100", "fugaku-a64fx")


def _float_list(text: str) -> list[float]:
    """argparse type for comma-separated float lists ("1.0,1.5,2.0")."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from None


@contextlib.contextmanager
def _telemetry_session(command: str, metrics_path: str | None,
                       trace: bool = False):
    """Enable the global telemetry for the lifetime of a command — the
    metric registry when ``metrics_path`` is given or ``trace`` is set,
    the span tracer with ``trace`` — and disable both in one ``finally``,
    on every exit.  The registry's state is exported to ``metrics_path``
    (when given) on the way out, error exits included: a failed run's
    metrics are exactly the interesting ones.  Worker-pool series —
    phase seconds, ghost-wait spins — are recorded by the master from
    each round's reply, so the one registry holds them too."""
    if not (metrics_path or trace):
        yield
        return
    from .telemetry import METRICS, TRACER, export_metrics

    METRICS.reset()
    METRICS.enable()
    if trace:
        TRACER.reset()
        TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        METRICS.disable()
        if metrics_path:
            out = export_metrics(METRICS, metrics_path,
                                 meta={"command": command})
            print(f"metrics written to {out}")


def _write_timeline_trace(ctx, path, quiet=False):
    """Export a distributed-solver context's merged worker timeline as
    Chrome trace-event JSON and return the analysis document (the same
    numbers ``repro trace`` recomputes from the file)."""
    from .telemetry import analyze_timeline, render_timeline, write_chrome_trace

    events = ctx.timeline_events()
    rank_bytes = ctx.rank_exchange_bytes()
    analysis = analyze_timeline(events, rank_bytes=rank_bytes)
    meta = {
        "rank_exchange_bytes": {str(k): v for k, v in rank_bytes.items()},
    }
    out = write_chrome_trace(path, events, meta=meta)
    if not quiet:
        print(f"timeline trace written to {out} ({len(events)} events; "
              f"load in Perfetto or chrome://tracing)")
        print(render_timeline(analysis))
    return analysis


def cmd_poisson(args) -> int:
    from .core.dof_handler import DGDofHandler
    from .core.operators import DGLaplaceOperator
    from .mesh import Forest, GeometryField, box, build_connectivity
    from .solvers import HybridMultigridPreconditioner, conjugate_gradient

    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(args.refinements)
    geo = GeometryField(forest, args.degree)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, args.degree)
    op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
    if not args.json:
        print(f"Poisson: {forest.n_cells} cells, {dof.n_dofs} DoF, k={args.degree}")
    mg = HybridMultigridPreconditioner(op)
    if not args.json:
        print(mg.describe())
    b = op.assemble_rhs(f=lambda x, y, z: np.ones_like(x),
                        dirichlet=lambda x, y, z: 0.0 * x)
    workers = getattr(args, "workers", 0) or 0
    trace_path = getattr(args, "trace_timeline", None)
    if trace_path and not workers:
        print("error: --trace-timeline requires --workers >= 2",
              file=sys.stderr)
        return 2
    if workers:
        from .parallel import DistributedSolverContext

        with DistributedSolverContext(
            op, mg, n_workers=workers, trace_timeline=bool(trace_path)
        ) as ctx:
            if not args.json:
                c = ctx.census
                print(f"distributed: {workers} workers, "
                      f"{c.n_messages} messages/round, "
                      f"{c.bytes_total} ghost bytes")
            res = conjugate_gradient(ctx.operator, b, mg,
                                     tol=args.tolerance, name="poisson")
            if trace_path:
                _write_timeline_trace(ctx, trace_path,
                                      quiet=args.json)
    else:
        res = conjugate_gradient(op, b, mg, tol=args.tolerance, name="poisson")
    if args.json:
        from .perf.measure import measure_operator

        perf = measure_operator(op, name="dg_laplace_vmult", repetitions=5)
        print(json.dumps({
            "command": "poisson",
            "n_cells": forest.n_cells,
            "n_dofs": dof.n_dofs,
            "degree": args.degree,
            "tolerance": args.tolerance,
            "converged": res.converged,
            "failure_reason": res.failure_reason,
            "n_iterations": res.n_iterations,
            "reduction_rate": res.reduction_rate,
            "residuals": res.residuals,
            "vmult_best_seconds": perf.best_seconds,
            "vmult_dofs_per_second": perf.dofs_per_second,
            "vmult_alloc_peak_bytes": perf.alloc_peak_bytes,
            "vmult_alloc_net_blocks": perf.alloc_net_blocks,
        }))
    else:
        tail = "" if res.converged else f" [{res.failure_reason}]"
        print(f"converged: {res.converged} in {res.n_iterations} iterations "
              f"(reduction rate {res.reduction_rate:.3f}){tail}")
    return 0 if res.converged else 1


def cmd_lung(args) -> int:
    from .robustness import RunConfig

    try:
        cfg = RunConfig.from_args(args)
        configs = _member_configs(args, cfg)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.resume and not cfg.robustness.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir (or a config file "
              "with robustness.checkpoint_dir set)", file=sys.stderr)
        return 2
    with _telemetry_session("lung", args.metrics_file, trace=args.trace):
        return _lung_run(args, configs)


def _member_configs(args, base):
    """What :class:`~repro.lung.LungVentilationSimulation` runs: ``base``
    alone, or — when a sweep flag is set — one RunConfig per member.

    Each comma-separated list must have length 1 (shared by all
    members) or exactly the member count; ``--members`` defaults to
    the longest list."""
    import dataclasses

    flags = {
        "windkessel_resistance_scale": "--resistance-scales",
        "windkessel_compliance_scale": "--compliance-scales",
        "dp_initial": "--dp-initials",
    }
    sweeps: dict[str, list[float]] = {}
    if args.resistance_scales:
        sweeps["windkessel_resistance_scale"] = args.resistance_scales
    if args.compliance_scales:
        sweeps["windkessel_compliance_scale"] = args.compliance_scales
    if args.dp_initials:
        sweeps["dp_initial"] = args.dp_initials
    if not sweeps and args.members is None:
        return base
    n_members = args.members or max(
        (len(v) for v in sweeps.values()), default=1
    )
    for name, values in sweeps.items():
        if len(values) not in (1, n_members):
            raise ValueError(
                f"{flags[name]} has {len(values)} values for "
                f"{n_members} members (need 1 or {n_members})"
            )
    configs = []
    for e in range(n_members):
        pick = {k: (v[0] if len(v) == 1 else v[e]) for k, v in sweeps.items()}
        vent = base.ventilation
        if "dp_initial" in pick:
            vent = dataclasses.replace(vent, dp_initial=pick.pop("dp_initial"))
        configs.append(dataclasses.replace(base, ventilation=vent, **pick))
    return configs


def _fmt_members(values, spec: str) -> str:
    """Per-member values as ``"v0, v1, ..."`` (a single run: ``"v"``)."""
    return ", ".join(format(v, spec) for v in np.ravel(values))


def _lung_run(args, configs) -> int:
    from .lung import LungVentilationSimulation
    from .parallel import WorkerCrash
    from .robustness import CheckpointManager, StepFailure
    from .telemetry import (
        METRICS,
        TRACER,
        RunLogWriter,
        aggregate_steps,
        render_breakdown,
        render_span_tree,
    )
    from .telemetry.metrics import render_metrics_table, snapshot_doc

    def summarize(extra=None):
        """Close the run log with the session's metrics; returns that
        metric list (None while the registry is off)."""
        metrics = snapshot_doc(METRICS)["metrics"] if METRICS.enabled else None
        if writer is not None:
            writer.write_summary(TRACER if args.trace else None,
                                 metrics=metrics, extra=extra)
            writer.close()
            print(f"run log written to {writer.path}")
        return metrics

    sim = LungVentilationSimulation(configs)
    cfg = sim.config
    manager = CheckpointManager.from_settings(cfg.robustness)
    if args.resume:
        try:
            resumed_from = manager.resume(sim, target=args.resume)
        except (FileNotFoundError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"resumed from {resumed_from} (t={sim.time:.6f}s)")
    n_dofs = sim.solver.dof_u.n_dofs + sim.solver.dof_p.n_dofs
    n_members = sim.n_members
    print(f"lung g={cfg.generations}: {sim.lung.forest.n_cells} cells, "
          f"{sim.lung.n_outlets} outlets, {n_dofs} DoF, "
          f"{n_members} member{'s' * (n_members != 1)}")
    writer = None
    if args.log_file:
        writer = RunLogWriter(args.log_file, meta={
            "command": "lung",
            "members": n_members,
            "generations": cfg.generations,
            "degree": cfg.degree,
            "seed": cfg.seed,
            "n_cells": sim.lung.forest.n_cells,
            "n_dofs": n_dofs,
            "steps": args.steps,
        })
    dist_ctx = sim.solver.distributed_context
    stats = []
    for i in range(args.steps):
        try:
            st = sim.step()
        except StepFailure as e:
            print(f"error: {e}", file=sys.stderr)
            if manager is not None:
                path = manager.save(sim)
                print(f"pre-failure state checkpointed to {path}",
                      file=sys.stderr)
            summarize()
            sim.close()
            return 1
        except WorkerCrash as e:
            # the state is mid-step, so there is nothing sound to
            # checkpoint; the pool has already torn itself down
            print(f"error: {e}", file=sys.stderr)
            summarize()
            sim.close()
            return 1
        stats.append(st)
        if writer is not None:
            # per-member values: a float for a single run, a list per member
            extra = {
                "inflow_m3_s": np.asarray(sim._inlet_flow).tolist(),
                "tidal_volume_ml":
                    (np.asarray(sim.tidal_volume_delivered()) * 1e6).tolist(),
                "recovery_events": len(sim.recovery_log),
                "member_cfl": np.asarray(st.member_cfl).tolist(),
                "member_pressure_iterations":
                    np.asarray(st.member_pressure_iterations).tolist(),
            }
            if dist_ctx is not None:
                # cumulative per-rank phase seconds; repro monitor
                # renders the per-worker breakdown from the last record
                extra["worker_phases"] = dist_ctx.worker_phase_totals()
            writer.write_step(st, extra=extra)
        if manager is not None:
            manager.maybe_save(sim)
        if args.crash_after_step is not None and i + 1 >= args.crash_after_step:
            # deterministic crash injection for kill/resume testing: exit
            # without any cleanup, as a kill -9 would
            print(f"simulated crash after step {i + 1}")
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(137)
        if (i + 1) % max(1, args.steps // 5) == 0:
            print(f"  step {i + 1:4d}: t={sim.time:.5f}s dt={st.dt:.2e} "
                  f"inflow={_fmt_members(sim._inlet_flow * 1e3, '.3f')} l/s "
                  f"V={_fmt_members(sim.tidal_volume_delivered() * 1e6, '.2f')}"
                  " ml")
    print()
    print(f"{'member':>7} {'R-scale':>8} {'C-scale':>8} {'dp [Pa]':>9} "
          f"{'V [ml]':>9}")
    for rec in sim.member_records():
        c = rec.config
        print(f"{rec.member:>7} {c.windkessel_resistance_scale:>8.3f} "
              f"{c.windkessel_compliance_scale:>8.3f} {rec.dp:>9.1f} "
              f"{rec.tidal_volume * 1e6:>9.3f}")
    if sim.recovery_log:
        retries = sum(1 for e in sim.recovery_log if e.kind == "step_retry")
        print(f"recovery: {retries} step retries "
              f"({len(sim.recovery_log)} events total)")
    trace_path = getattr(args, "trace_timeline", None)
    timeline_analysis = None
    if trace_path:
        if dist_ctx is None:
            print("warning: --trace-timeline needs --workers >= 2; "
                  "no trace recorded", file=sys.stderr)
        else:
            timeline_analysis = _write_timeline_trace(dist_ctx, trace_path)
    metrics = summarize(
        {"timeline": timeline_analysis}
        if timeline_analysis is not None else None
    )
    if args.trace:
        print()
        print(render_breakdown(aggregate_steps(stats)))
        print()
        print("span profile:")
        print(render_span_tree(TRACER))
        print()
        print("metrics:")
        print(render_metrics_table({"metrics": metrics}))
    if args.vtk:
        from .mesh.vtk import write_vtk

        path = write_vtk(args.vtk, sim.lung.forest)
        print(f"mesh written to {path}")
    sim.close()
    return 0


def cmd_report(args) -> int:
    from .perf.attribution import MACHINES, render_roofline
    from .telemetry import (
        aggregate_steps,
        read_run_log,
        render_breakdown,
        render_robustness,
    )

    if args.html:
        from .telemetry import write_html_dashboard

        output = args.output or str(args.run_log) + ".html"
        try:
            path = write_html_dashboard(args.run_log, output)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(f"dashboard written to {path}")
        return 0

    try:
        header, steps, summary = read_run_log(args.run_log)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    meta = ", ".join(
        f"{k}={v}" for k, v in header.items() if k not in ("type", "schema")
    )
    print(f"run log: {args.run_log}" + (f" ({meta})" if meta else ""))
    if not steps:
        print("no step records (empty or truncated run)")
        return 1
    print()
    print(render_breakdown(aggregate_steps(steps)))
    if summary is not None:
        if summary.get("timeline"):
            from .telemetry import render_timeline

            print()
            print(render_timeline(summary["timeline"]))
        robustness = render_robustness(summary.get("metrics"))
        if robustness:
            print()
            print(robustness)
        if summary.get("spans"):
            roofline = render_roofline(
                summary, machine=MACHINES[args.machine]
            )
            if "(no annotated spans" not in roofline:
                print()
                print(roofline)
        if summary.get("metrics"):
            from .telemetry.metrics import render_metrics_table

            print()
            print("metrics:")
            print(render_metrics_table(summary))
    return 0


def cmd_trace(args) -> int:
    """Analyze a Chrome trace written by ``--trace-timeline``: recompute
    the per-round overlap-efficiency / imbalance / critical-path numbers
    from the event stream (bit-exact — the slices carry full-precision
    timestamps in their ``args``)."""
    from .perf.attribution import MACHINES, render_exchange
    from .telemetry import analyze_timeline, load_chrome_trace, render_timeline

    try:
        events, meta = load_chrome_trace(args.trace_file)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not events:
        print("error: trace contains no timeline events", file=sys.stderr)
        return 1
    analysis = analyze_timeline(events,
                                rank_bytes=meta.get("rank_exchange_bytes"))
    if args.json:
        print(json.dumps(analysis))
        return 0
    print(f"trace: {args.trace_file}")
    print(render_timeline(analysis))
    exchange = render_exchange(analysis, MACHINES[args.machine])
    if exchange:
        print()
        print(exchange)
    return 0


def cmd_roofline(args) -> int:
    """Run instrumented workloads and report achieved rates against the
    analytic roofline work models (Figure 7 at reproduction scale)."""
    from .perf.attribution import MACHINES, render_roofline, roofline_doc
    from .telemetry import TRACER, read_run_log

    machine = MACHINES[args.machine]
    meta: dict = {"command": "roofline", "machine": args.machine}

    if args.from_log:
        try:
            _, _, summary = read_run_log(args.from_log)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        if summary is None or not summary.get("spans"):
            print(f"error: {args.from_log} has no traced summary record "
                  "(rerun with --trace --log-file)", file=sys.stderr)
            return 1
        source: object = summary
        meta["from_log"] = str(args.from_log)
    else:
        from .core.dof_handler import DGDofHandler
        from .core.operators import DGLaplaceOperator
        from .lung import LungVentilationSimulation
        from .mesh import Forest, GeometryField, box, build_connectivity
        from .robustness import RunConfig

        from .solvers.multigrid import operator_to_dtype

        TRACER.reset()
        TRACER.enable()
        try:
            # workload 1: the Figure 6-8 kernel — DG Laplace vmult,
            # cast to the requested compute dtype (fp32 halves the
            # streamed bytes, roughly doubling arithmetic intensity)
            mesh = box(subdivisions=(2, 1, 1), boundary_ids={0: 1})
            forest = Forest(mesh).refine_all(args.refinements)
            geo = GeometryField(forest, args.degree)
            conn = build_connectivity(forest)
            dof = DGDofHandler(forest, args.degree)
            op = operator_to_dtype(
                DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,)),
                args.dtype,
            )
            x = np.random.default_rng(0).standard_normal(op.n_dofs)
            x = x.astype(args.dtype)
            op.vmult(x)  # warm-up: plan construction outside the timing
            for _ in range(args.repetitions):
                op.vmult(x)
            # workload 2: one full coupled lung time step
            sim = LungVentilationSimulation(
                RunConfig(generations=args.generations, degree=2, seed=0,
                          compute_dtype=args.dtype)
            )
            for _ in range(args.steps):
                sim.step()
            source = TRACER
            meta.update({
                "dtype": args.dtype,
                "laplace": {"n_dofs": op.n_dofs, "degree": args.degree,
                            "repetitions": args.repetitions},
                "lung": {"generations": args.generations,
                         "steps": args.steps},
            })
        finally:
            TRACER.disable()

    if args.json:
        doc = roofline_doc(source, machine=machine, meta=meta)
        if args.output:
            with open(args.output, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            print(f"roofline report written to {args.output}")
        else:
            print(json.dumps(doc))
    else:
        print(render_roofline(source, machine=machine))
    return 0


def cmd_bench(args) -> int:
    with _telemetry_session("bench", args.metrics_file):
        return _bench_run(args)


def _bench_run(args) -> int:
    """Run a declared benchmark suite; optionally gate against a
    baseline document."""
    from .perf.bench import (
        SUITES,
        compare_bench,
        load_bench,
        render_bench,
        render_compare,
        run_suite,
    )

    if args.list_suites:
        for name in sorted(SUITES):
            print(name)
        return 0

    if args.input:
        try:
            doc = load_bench(args.input)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        try:
            doc = run_suite(args.suite, smoke=args.smoke, degree=args.degree,
                            case_filter=args.cases, dtype=args.dtype)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        output = args.output or f"BENCH_{args.suite}.json"
        with open(output, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(render_bench(doc))
        print(f"benchmark document written to {output}")

    if not args.compare:
        return 0
    try:
        baseline = load_bench(args.compare)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = compare_bench(doc, baseline, max_regression=args.max_regression)
    print()
    print(render_compare(report))
    if not report["ok"]:
        if args.warn_only:
            print("warning: throughput regressions detected "
                  "(--warn-only: not failing)")
            return 0
        return 1
    return 0


def cmd_monitor(args) -> int:
    from .telemetry import monitor_file

    return monitor_file(args.run_log, follow=args.follow,
                        interval=args.interval)


def cmd_metrics(args) -> int:
    """Render a run's metric list, or export it as Prometheus text."""
    from .telemetry.metrics import (
        doc_to_prometheus,
        load_metrics,
        render_metrics_table,
    )

    try:
        doc = load_metrics(args.file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.action == "render":
        print(render_metrics_table(doc))
        return 0
    text = doc_to_prometheus(doc)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"metrics written to {args.output}")
    else:
        print(text, end="")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def cmd_verify(args) -> int:
    with _telemetry_session("verify", args.metrics_file):
        return _verify_run(args)


def _verify_run(args) -> int:
    from .verification import (
        beltrami_temporal_gate,
        compare_golden,
        compute_golden_metrics,
        load_golden,
        ns_temporal_ladder,
        poisson_spatial_ladder,
        rate_table_doc,
        render_rate_table,
        womersley_temporal_ladder,
        write_golden,
        write_rate_log,
    )

    # --- golden-snapshot mode -------------------------------------------
    if args.golden:
        if args.update_golden:
            metrics = compute_golden_metrics()
            path = write_golden(args.golden, metrics)
            print(f"golden snapshot written to {path}")
            return 0
        try:
            golden = load_golden(args.golden)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        mismatches = compare_golden(compute_golden_metrics(), golden)
        if mismatches:
            print(f"golden regression FAILED ({len(mismatches)} mismatches):")
            for m in mismatches:
                print(f"  - {m}")
            return 1
        print("golden regression passed")
        return 0

    # --- rate-ladder mode -----------------------------------------------
    studies = []
    if args.ladder in ("spatial", "all"):
        for degree in args.degrees:
            studies.append(
                poisson_spatial_ladder(degree=degree, levels=args.levels)
            )
    step_kw = {"steps": args.steps} if args.steps else {}
    if args.ladder in ("temporal", "all"):
        if args.nu is None:
            # the calibrated gate configuration (see TESTING.md)
            studies.append(beltrami_temporal_gate(**step_kw))
        else:
            from .ns.analytic import BeltramiFlow

            studies.append(
                ns_temporal_ladder(BeltramiFlow(nu=args.nu), nu=args.nu,
                                   **step_kw)
            )
    if args.ladder in ("womersley", "all"):
        studies.append(womersley_temporal_ladder(**step_kw))

    doc = rate_table_doc(studies, tolerance=args.rate_tolerance,
                         meta={"command": "verify", "ladder": args.ladder})
    table = render_rate_table(studies, tolerance=args.rate_tolerance)
    if args.json:
        print(json.dumps(doc))
    else:
        print(table)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(table + "\n")
        print(f"markdown rate table written to {args.markdown}")
    if args.log_file:
        write_rate_log(args.log_file, studies,
                       tolerance=args.rate_tolerance,
                       meta={"command": "verify", "ladder": args.ladder})
        print(f"rate log written to {args.log_file}")
    return 0 if doc["all_passed"] else 1


def cmd_mesh(args) -> int:
    from .lung import airway_tree_mesh, grow_airway_tree
    from .mesh import build_connectivity
    from .mesh.vtk import write_vtk

    tree = grow_airway_tree(args.generations, seed=args.seed)
    lm = airway_tree_mesh(tree, refine_upper_generations=args.refine_upper)
    conn = build_connectivity(lm.forest)
    print(f"airway tree: {tree.n_airways} airways, "
          f"{len(tree.terminal_airways())} terminals")
    print(f"mesh: {lm.forest.n_cells} cells, "
          f"{conn.n_interior_faces} interior faces "
          f"({conn.n_hanging_faces} hanging), "
          f"{conn.n_boundary_faces} boundary faces")
    if args.vtk:
        path = write_vtk(args.vtk, lm.forest)
        print(f"written to {path}")
    return 0


def cmd_scaling(args) -> int:
    from .parallel import MatvecScalingModel

    model = MatvecScalingModel(degree=args.degree)
    print(f"strong scaling of the k={args.degree} mat-vec, "
          f"{args.dofs:.2e} DoF (SuperMUC-NG model):")
    print(f"{'nodes':>7} {'time [s]':>11} {'GDoF/s':>9}")
    for p, t, tp in model.strong_scaling(args.dofs, [2**i for i in range(0, 13)]):
        print(f"{p:>7} {t:>11.3e} {tp / 1e9:>9.2f}")
    return 0


def cmd_calibrate(args) -> int:
    from .perf import calibrate_local_machine

    m = calibrate_local_machine(degree=args.degree)
    if args.json:
        print(json.dumps({
            "command": "calibrate",
            "degree": args.degree,
            "machine": m.name,
            "matvec_dofs_per_s_k3": m.matvec_dofs_per_s_k3,
        }))
    else:
        print(f"local machine anchor: {m.matvec_dofs_per_s_k3:.3e} DoF/s "
              f"(k={args.degree} DG Laplacian mat-vec, best of 5)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matrix-free high-order DG flow solver (SC'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poisson", help="hybrid-multigrid Poisson solve")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--refinements", type=int, default=2)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--workers", type=int, default=0,
                   help="run the CG mat-vec on a shared-memory worker pool "
                        "(>= 2; 0 = serial). fp64 results are bitwise "
                        "identical to the serial solve")
    p.add_argument("--trace-timeline", type=str, default=None, metavar="FILE",
                   help="with --workers: record per-rank timeline events "
                        "and write a Chrome trace-event JSON here "
                        "(Perfetto / chrome://tracing)")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON object instead of text")
    p.set_defaults(fn=cmd_poisson)

    p = sub.add_parser(
        "lung",
        help="coupled ventilated-lung simulation; the sweep flags run N "
             "parameter sets (members) through one batched solver",
    )
    p.add_argument("--config", type=str, default=None,
                   help="JSON RunConfig file providing the run description "
                        "(the shared base of every member); explicit flags "
                        "override it")
    p.add_argument("--members", type=int, default=None,
                   help="member count (default: longest sweep list; any "
                        "sweep flag makes this a member run)")
    p.add_argument("--resistance-scales", type=_float_list, default=None,
                   metavar="S0,S1,...",
                   help="per-member windkessel resistance scales "
                        "(1 value = shared, else one per member)")
    p.add_argument("--compliance-scales", type=_float_list, default=None,
                   metavar="S0,S1,...",
                   help="per-member windkessel compliance scales")
    p.add_argument("--dp-initials", type=_float_list, default=None,
                   metavar="P0,P1,...",
                   help="per-member initial ventilator driving pressures [Pa]")
    p.add_argument("--generations", type=int, default=None,
                   help="airway-tree generations (default 1)")
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree (default 2)")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative solver tolerance (default 1e-3)")
    p.add_argument("--compute-dtype", choices=("float64", "float32"),
                   default=None,
                   help="forward-solve precision (default float64; the "
                        "pressure outer CG and checkpoints stay double)")
    p.add_argument("--workers", type=int, default=None,
                   help="shared-memory worker processes for the pressure "
                        "mat-vec (>= 2; default serial). fp64 steps are "
                        "bitwise identical to the serial run")
    p.add_argument("--vtk", type=str, default=None)
    p.add_argument("--trace", action="store_true",
                   help="enable the span tracer and the metric registry "
                        "and print the per-sub-step wall-time breakdown, "
                        "span profile and metrics table")
    p.add_argument("--trace-timeline", type=str, default=None, metavar="FILE",
                   help="with --workers: record per-rank worker timeline "
                        "events and write a Chrome trace-event JSON here "
                        "(analyze with 'repro trace'; the run-log summary "
                        "gains a 'Distributed timeline' section)")
    p.add_argument("--log-file", type=str, default=None,
                   help="write a schema-versioned JSONL run log "
                        "(one record per time step)")
    p.add_argument("--checkpoint-dir", type=str, default=None,
                   help="directory for rotated auto-checkpoints")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="checkpoint every N steps (with --checkpoint-dir)")
    p.add_argument("--checkpoint-every-seconds", type=float, default=None,
                   help="checkpoint every T simulated seconds")
    p.add_argument("--checkpoint-keep", type=int, default=None,
                   help="number of rotated checkpoints to retain (default 3)")
    p.add_argument("--resume", type=str, default=None, metavar="latest|PATH",
                   help="resume from a checkpoint before stepping "
                        "('latest' or an explicit file)")
    p.add_argument("--max-step-retries", type=int, default=None,
                   help="divergence-recovery retry budget per step (default 3)")
    p.add_argument("--crash-after-step", type=int, default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--metrics-file", type=str, default=None,
                   help="enable the solver-health metric registry and "
                        "export it here (.prom for the Prometheus "
                        "textfile, anything else for JSON)")
    p.set_defaults(fn=cmd_lung)

    p = sub.add_parser("report", help="aggregate a JSONL run log")
    p.add_argument("run_log", type=str,
                   help="path to a run log written with --log-file")
    p.add_argument("--machine", choices=sorted(_MACHINE_NAMES),
                   default="local",
                   help="machine model for the roofline section "
                        "(default: local)")
    p.add_argument("--html", action="store_true",
                   help="render a self-contained HTML dashboard instead "
                        "of the text report")
    p.add_argument("--output", type=str, default=None,
                   help="with --html: dashboard path "
                        "(default: <run_log>.html)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "trace",
        help="analyze a --trace-timeline Chrome trace: per-round overlap "
             "efficiency, load imbalance, critical path, and per-rank "
             "exchange bandwidth",
    )
    p.add_argument("trace_file", type=str,
                   help="Chrome trace-event JSON written by --trace-timeline")
    p.add_argument("--machine", choices=sorted(_MACHINE_NAMES),
                   default="local",
                   help="machine model for the exchange-bandwidth rows "
                        "(default: local)")
    p.add_argument("--json", action="store_true",
                   help="emit the repro/timeline/1 analysis document "
                        "instead of text")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "roofline",
        help="achieved GFlop/s, GB/s, and %%-of-model per instrumented "
             "kernel (runs a DG Laplace vmult and a lung step, or reads "
             "a traced run log)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the schema-versioned JSON document")
    p.add_argument("--output", type=str, default=None,
                   help="with --json: write the document here instead of "
                        "stdout")
    p.add_argument("--machine", choices=sorted(_MACHINE_NAMES),
                   default="local",
                   help="roofline machine model (default: local)")
    p.add_argument("--from-log", type=str, default=None,
                   help="attribute the summary spans of an existing "
                        "traced run log instead of running workloads")
    p.add_argument("--degree", type=int, default=3,
                   help="polynomial degree of the Laplace workload")
    p.add_argument("--refinements", type=int, default=1,
                   help="box refinements of the Laplace workload")
    p.add_argument("--repetitions", type=int, default=5,
                   help="timed vmult applications")
    p.add_argument("--generations", type=int, default=1,
                   help="airway generations of the lung workload")
    p.add_argument("--steps", type=int, default=1,
                   help="lung time steps to trace")
    p.add_argument("--dtype", choices=("float64", "float32"),
                   default="float64",
                   help="compute precision of the measured workloads "
                        "(default: float64)")
    p.set_defaults(fn=cmd_roofline)

    p = sub.add_parser(
        "bench",
        help="run a declared benchmark suite and optionally gate "
             "against a baseline document",
    )
    p.add_argument("--suite", type=str, default="ops",
                   help="suite to run (see --list-suites; default: ops)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny meshes / few repetitions (CI validity check)")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--dtype", choices=("float64", "float32"),
                   default="float64",
                   help="compute precision of the measured kernels; "
                        "float32 cases get an @float32 name suffix so "
                        "both precisions coexist in one baseline "
                        "(default: float64)")
    p.add_argument("--output", type=str, default=None,
                   help="output path (default: BENCH_<suite>.json)")
    p.add_argument("--cases", type=str, default=None,
                   help="only run cases whose name contains this substring")
    p.add_argument("--input", type=str, default=None,
                   help="compare an existing benchmark document instead "
                        "of running the suite")
    p.add_argument("--compare", type=str, default=None,
                   help="baseline benchmark JSON to gate against")
    p.add_argument("--max-regression", type=float, default=0.15,
                   help="allowed fractional throughput drop (default 0.15)")
    p.add_argument("--warn-only", action="store_true",
                   help="report regressions but exit 0 (shared runners)")
    p.add_argument("--list-suites", action="store_true",
                   help="print the declared suite names and exit")
    p.add_argument("--metrics-file", type=str, default=None,
                   help="enable the solver-health metric registry and "
                        "export it here")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "metrics",
        help="render a run's metric list or export it as Prometheus text",
    )
    p.add_argument("action", choices=("render", "export"),
                   help="render a summary table, or export the "
                        "Prometheus textfile")
    p.add_argument("file",
                   help="a JSON metric snapshot written with "
                        "--metrics-file x.json, or a .jsonl run log whose "
                        "summary carries metrics")
    p.add_argument("--output", type=str, default=None,
                   help="write the result here instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "monitor",
        help="summarize an in-flight run from its JSONL run log "
             "(step rate, ETA, CFL, iterations, recovery activity)",
    )
    p.add_argument("run_log", type=str,
                   help="path to a run log written with --log-file")
    p.add_argument("--follow", action="store_true",
                   help="poll until the summary footer appears")
    p.add_argument("--interval", type=float, default=2.0,
                   help="polling interval in seconds (with --follow)")
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser(
        "verify",
        help="convergence-rate gates and golden regression snapshots",
    )
    p.add_argument("--ladder", choices=("spatial", "temporal", "womersley", "all"),
                   default="spatial",
                   help="which refinement ladder(s) to run (default: spatial)")
    p.add_argument("--degrees", type=_parse_int_list, default=(2,),
                   help="comma-separated polynomial degrees for the spatial "
                        "ladder (default: 2)")
    p.add_argument("--levels", type=_parse_int_list, default=(1, 2, 3),
                   help="comma-separated refinement levels for the spatial "
                        "ladder (default: 1,2,3)")
    p.add_argument("--steps", type=_parse_int_list, default=None,
                   help="comma-separated step counts for the temporal ladders "
                        "(default: the ladder's own)")
    p.add_argument("--nu", type=float, default=None,
                   help="viscosity for a custom temporal Beltrami ladder "
                        "(default: the calibrated gate configuration)")
    p.add_argument("--rate-tolerance", type=float, default=0.4,
                   help="allowed deficit of fitted vs expected rate")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable rate-table document")
    p.add_argument("--markdown", type=str, default=None,
                   help="also write the Markdown rate table to this file")
    p.add_argument("--log-file", type=str, default=None,
                   help="write a schema-versioned JSONL rate log")
    p.add_argument("--golden", type=str, default=None,
                   help="compare small-case metrics against this golden "
                        "snapshot instead of running ladders")
    p.add_argument("--update-golden", action="store_true",
                   help="with --golden: regenerate the snapshot file")
    p.add_argument("--metrics-file", type=str, default=None,
                   help="enable the solver-health metric registry and "
                        "export it here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mesh", help="generate an airway mesh")
    p.add_argument("--generations", type=int, default=3)
    p.add_argument("--refine-upper", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vtk", type=str, default=None)
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("scaling", help="evaluate the scaling model")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--dofs", type=float, default=179e6)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("calibrate", help="measure this machine's throughput")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON object instead of text")
    p.set_defaults(fn=cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early: not an error,
        # but suppress the flush-on-exit traceback too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
