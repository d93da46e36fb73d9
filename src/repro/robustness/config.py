"""The unified run-facing configuration: one frozen :class:`RunConfig`
drives the solver, simulation, CLI, and checkpoint layers.

Production runs (Table 2, Section 5.3) take millions of dual-splitting
steps; their configuration used to be scattered over ~10 keyword
arguments of :class:`~repro.lung.simulation.LungVentilationSimulation`
plus per-subcommand argparse wiring.  ``RunConfig`` composes the solver
parameters (:class:`~repro.ns.solver.SolverSettings`), the
fault-tolerance policy (:class:`RobustnessSettings`), the ventilation
protocol, and the mesh/discretization parameters, and JSON round-trips
(``RunConfig.from_dict(c.to_dict()) == c``) so a checkpoint can carry
the exact configuration it was produced under.

This module imports nothing from the solver stack at module level (the
heavier settings classes are resolved lazily at construction time), so
every layer — time integration, solvers, simulation, CLI — can depend
on it without import cycles.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

@dataclass(frozen=True)
class RobustnessSettings:
    """Fault-tolerance policy of a long-horizon run.

    *Step recovery*: after every dual-splitting step the new state
    (velocity, pressure, and the freshly cached convective evaluation)
    is validated for finiteness and bounded energy growth; a failed step
    is rolled back to the BDF history still held in memory, the step
    size is shrunk by ``dt_backoff``, and the step is retried up to
    ``max_step_retries`` times before a structured
    :class:`~repro.robustness.recovery.StepFailure` surfaces.

    *Solver fallback*: when enabled, a failed pressure solve escalates
    deterministically through mixed-precision multigrid -> full
    double-precision multigrid -> Jacobi-preconditioned CG with the
    iteration cap raised by ``fallback_max_iter_scale``.

    *Checkpointing*: ``checkpoint_dir`` plus an interval (in steps or
    simulated seconds) enables automatic rotated checkpoints with a
    ``latest`` pointer (see
    :class:`~repro.robustness.checkpointing.CheckpointManager`).
    """

    max_step_retries: int = 3
    dt_backoff: float = 0.5
    energy_growth_limit: float = 1.0e6  # per-step ||u||^2 factor; <= 0 disables
    enable_fallback: bool = True
    fallback_max_iter_scale: float = 4.0
    checkpoint_dir: str | None = None
    checkpoint_every_steps: int = 0  # 0 disables the step-interval policy
    checkpoint_every_seconds: float = 0.0  # simulated seconds; 0 disables
    checkpoint_keep: int = 3

    def __post_init__(self) -> None:
        if self.max_step_retries < 0:
            raise ValueError("max_step_retries must be >= 0")
        if not 0.0 < self.dt_backoff < 1.0:
            raise ValueError("dt_backoff must be in (0, 1)")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of a (lung) simulation run.

    ``solver``, ``ventilation``, and ``robustness`` default to the
    settings-class defaults when omitted; ``viscosity`` defaults to the
    kinematic viscosity of air.  The object is frozen — derive variants
    with :func:`dataclasses.replace`.
    """

    generations: int = 3
    degree: int = 2
    scale: float = 1.0
    refine_upper_generations: int = 0
    viscosity: float | None = None  # None -> AIR_KINEMATIC_VISCOSITY
    seed: int = 0
    #: storage/compute dtype of the forward solve ("float64" or
    #: "float32"); checkpoints and the outer pressure iteration stay in
    #: double precision either way (Section 3.4 mixed precision)
    compute_dtype: str = "float64"
    #: patient-variability multipliers on the morphometry-derived
    #: windkessel R and C — the per-member knobs ensemble runs sweep
    windkessel_resistance_scale: float = 1.0
    windkessel_compliance_scale: float = 1.0
    #: shared-memory worker processes for the pressure-Poisson mat-vec
    #: (>= 2 enables the pool; 0/1 run serial).  fp64 steps are bitwise
    #: identical either way, so checkpoints are interchangeable
    workers: int = 0
    #: record per-rank timeline events (pack/post/interior/wait/...) in
    #: the worker pool's shared-memory rings; off by default — the
    #: recording sites are allocation-free but still cost perf_counter
    #: calls.  Only meaningful with ``workers >= 2``
    trace_timeline: bool = False
    solver: Any = None  # SolverSettings
    ventilation: Any = None  # VentilationSettings
    robustness: RobustnessSettings | None = None

    def __post_init__(self) -> None:
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', "
                f"got {self.compute_dtype!r}"
            )
        # lazy imports keep this module free of solver-stack dependencies
        if self.solver is None:
            from ..ns.solver import SolverSettings

            object.__setattr__(self, "solver", SolverSettings())
        if self.ventilation is None:
            from ..lung.ventilator import VentilationSettings

            object.__setattr__(self, "ventilation", VentilationSettings())
        if self.robustness is None:
            object.__setattr__(self, "robustness", RobustnessSettings())
        if self.viscosity is None:
            from ..lung.morphometry import AIR_KINEMATIC_VISCOSITY

            object.__setattr__(self, "viscosity", AIR_KINEMATIC_VISCOSITY)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        # every field, the three settings objects as nested dicts
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        from ..lung.ventilator import VentilationSettings
        from ..ns.solver import SolverSettings

        settings = {"solver": SolverSettings, "ventilation": VentilationSettings,
                    "robustness": RobustnessSettings}
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown RunConfig keys: {sorted(unknown)}")
        return cls(**{k: settings[k](**v) if k in settings and v is not None else v
                      for k, v in d.items()})

    def to_json(self, **dumps_kwargs) -> str:
        # non-finite floats (dt_max defaults to inf) serialize as the
        # Infinity token, which json.loads round-trips by default
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    # -- construction fronts -------------------------------------------
    @classmethod
    def from_args(cls, args) -> "RunConfig":
        """Build a config from the CLI ``lung`` argparse namespace.

        ``--config FILE`` (a :meth:`to_json` document) provides the
        base; explicitly passed flags override it.  Flags left at their
        ``None`` argparse default inherit the base values (the CLI's
        historical defaults: one generation, degree 2)."""
        if getattr(args, "config", None):
            with open(args.config) as f:
                base = cls.from_dict(json.load(f))
        else:
            base = cls(generations=1)
            # the lung subcommand's historical relaxed tolerance
            base = dataclasses.replace(
                base,
                solver=dataclasses.replace(base.solver, solver_tolerance=1e-3),
            )
        updates: dict = {}
        for attr in ("generations", "degree", "seed", "compute_dtype", "workers"):
            value = getattr(args, attr, None)
            if value is not None:
                updates[attr] = value
        # --trace-timeline carries the trace output path; the config
        # records only that recording is on
        if getattr(args, "trace_timeline", None):
            updates["trace_timeline"] = True
        solver = base.solver
        if getattr(args, "tolerance", None) is not None:
            solver = dataclasses.replace(solver, solver_tolerance=args.tolerance)
        rb_updates: dict = {}
        for attr, field_name in (
            ("checkpoint_dir", "checkpoint_dir"),
            ("checkpoint_every", "checkpoint_every_steps"),
            ("checkpoint_every_seconds", "checkpoint_every_seconds"),
            ("checkpoint_keep", "checkpoint_keep"),
            ("max_step_retries", "max_step_retries"),
        ):
            value = getattr(args, attr, None)
            if value is not None:
                rb_updates[field_name] = value
        robustness = (
            dataclasses.replace(base.robustness, **rb_updates)
            if rb_updates
            else base.robustness
        )
        return dataclasses.replace(base, solver=solver, robustness=robustness, **updates)
