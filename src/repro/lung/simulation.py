"""Coupled lung-ventilation simulation (Section 5.3).

Assembles the pieces of the application runs of Table 2: a meshed
airway tree, the pressure-controlled ventilator at the tracheal inlet
(PEEP + dp with tubus drop), windkessel compartments at every terminal
outlet, no-slip walls, and the incompressible Navier–Stokes solver with
CFL-adaptive dual splitting.

Coupling is staggered and explicit: after each flow step the outlet flow
rates update the compartment volumes (hence next step's outlet
pressures) and the inlet flow updates the tubus pressure drop; at every
cycle end the tidal-volume controller adjusts dp.

One driver serves a single run (one :class:`~repro.robustness.RunConfig`:
flat state, scalar accessors) and a member run (a sequence of ``E``
configs on one mesh, operator stack and multigrid hierarchy: state
``(E, ndof)``, per-member scalars ``(E,)``, every GEMM, scatter, smoother
sweep and CG iteration serving all members in one call — DESIGN.md
section 5).  Members share the discretization, solver settings and time
step (the fastest member sets the CFL step) and differ in what a
patient-variability study sweeps (:data:`MEMBER_VARIABLE_FIELDS`), which
enters through the pressure-Dirichlet boundary data.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ns.bc import BoundaryConditions, PressureDirichlet
from ..ns.solver import IncompressibleNavierStokesSolver
from ..robustness.config import RunConfig
from ..telemetry import TRACER
from ..telemetry.metrics import METRICS
from .airway_mesh import INLET_ID, LungMesh, airway_tree_mesh
from .tree import grow_airway_tree
from .ventilator import PressureControlledVentilator
from .windkessel import WindkesselBank

#: RunConfig fields allowed to differ between the members of one run —
#: the rest (mesh, discretization, solver, dtype) must be shared so the
#: members can ride one operator/multigrid setup
MEMBER_VARIABLE_FIELDS = frozenset(
    {"ventilation", "windkessel_resistance_scale", "windkessel_compliance_scale"}
)

# ventilation-coupling health gauges, sampled once per coupled step; a
# single run is member "0"
_WK_FLOW = METRICS.gauge(
    "repro_windkessel_flow_m3_per_s",
    "outlet flow rate into each windkessel compartment (outward positive)",
    labels=("member", "outlet"),
)
_WK_VOLUME = METRICS.gauge(
    "repro_windkessel_volume_m3",
    "volume stored in each windkessel compartment",
    labels=("member", "outlet"),
)
_WK_PRESSURE = METRICS.gauge(
    "repro_windkessel_pressure_pa",
    "outlet pressure (PEEP + compartment pressure) per windkessel",
    labels=("member", "outlet"),
)
_INLET_FLOW = METRICS.gauge(
    "repro_inlet_flow_m3_per_s",
    "tracheal inlet flow rate (inward positive, the tubus model sign)",
    labels=("member",),
)
_TIDAL_VOLUME = METRICS.gauge(
    "repro_tidal_volume_m3",
    "total volume stored across all windkessel compartments",
    labels=("member",),
)
_MEMBER_CFL = METRICS.gauge(
    "repro_member_cfl",
    "realized CFL number of each member (members share dt)",
    labels=("member",),
)
_MEMBER_P_ITER = METRICS.gauge(
    "repro_member_pressure_iterations",
    "pressure-CG iterations until each member's convergence mask closed",
    labels=("member",),
)


@dataclass
class CycleRecord:
    cycle: int
    tidal_volume: float
    dp: float
    n_steps: int


@dataclass
class MemberRecord:
    """End-of-run summary of one member."""

    member: int
    config: RunConfig
    tidal_volume: float
    dp: float
    cycles: list[CycleRecord]


def _check_shared_fields(configs: Sequence[RunConfig]) -> None:
    base = configs[0].to_dict()
    for m, cfg in enumerate(configs[1:], start=1):
        d = cfg.to_dict()
        for key, value in base.items():
            if key not in MEMBER_VARIABLE_FIELDS and d[key] != value:
                raise ValueError(
                    f"ensemble member {m} differs from member 0 in the "
                    f"shared field {key!r} ({d[key]!r} vs {value!r}); only "
                    f"{sorted(MEMBER_VARIABLE_FIELDS)} may vary across "
                    "members"
                )


class LungVentilationSimulation:
    """End-to-end mechanically ventilated lung model.

    Parameters
    ----------
    config:
        A :class:`~repro.robustness.RunConfig` describing the full run
        (mesh generation, discretization, solver, ventilation protocol,
        windkessel R/C scaling, and fault-tolerance policy), or a
        sequence of them — one per member.  Members must agree in every
        field outside :data:`MEMBER_VARIABLE_FIELDS`.
    lung_mesh:
        Optional pre-built mesh overriding the tree growth described by
        the config (kept out of ``RunConfig`` because meshes are not
        JSON-serializable).

    ``lead`` is ``()`` for a single config and ``(E,)`` for a sequence;
    ``ventilator``, ``windkessels``, ``cycle_records``, ``_inlet_flow``
    and ``tidal_volume_delivered()`` have that shape — the bare item or
    an ``(E,)`` array (``ventilators`` / ``windkessel_banks`` are lists
    either way).  ``config`` holds the shared fields (member 0).
    """

    def __init__(
        self,
        config: RunConfig | Sequence[RunConfig] | None = None,
        *,
        lung_mesh: LungMesh | None = None,
    ) -> None:
        if config is None:
            config = RunConfig()
        single = isinstance(config, RunConfig)
        configs = [config] if single else list(config)
        if not configs:
            raise ValueError("need at least one ensemble member")
        if not all(isinstance(c, RunConfig) for c in configs):
            raise TypeError(
                "LungVentilationSimulation takes a repro.robustness.RunConfig "
                f"or a sequence of them (got {type(config).__name__}); the "
                "legacy keyword-argument shim was removed — build a "
                "RunConfig instead"
            )
        _check_shared_fields(configs)
        self.configs = configs
        self.config = config = configs[0]
        self.n_members = len(configs)
        self.lead: tuple[int, ...] = () if single else (self.n_members,)

        if lung_mesh is None:
            tree = grow_airway_tree(
                config.generations, scale=config.scale, seed=config.seed
            )
            lung_mesh = airway_tree_mesh(
                tree, refine_upper_generations=config.refine_upper_generations
            )
        self.lung = lung_mesh
        self.ventilators = [
            PressureControlledVentilator(c.ventilation) for c in configs
        ]
        self.windkessel_banks = [
            WindkesselBank(
                terminal_generation=lung_mesh.tree.n_generations,
                n_outlets=lung_mesh.n_outlets,
                peep=vent.settings.peep,
                resistance_scale=c.windkessel_resistance_scale,
                compliance_scale=c.windkessel_compliance_scale,
            )
            for c, vent in zip(configs, self.ventilators)
        ]
        self._cycle_records: list[list[CycleRecord]] = [[] for _ in configs]
        self.ventilator = self._of_lead(self.ventilators)
        self.windkessels = self._of_lead(self.windkessel_banks)
        self.cycle_records = self._of_lead(self._cycle_records)
        self._inlet_flow = np.zeros(self.lead)
        self._cycle_inhaled = np.zeros(self.lead)
        self._steps_this_cycle = np.zeros(self.lead, dtype=int)
        self._current_cycle = np.zeros(self.lead, dtype=int)

        conditions: dict[int, object] = {
            INLET_ID: PressureDirichlet(
                lambda x, y, z, t: self._boundary_data(
                    x,
                    [
                        vent.tracheal_pressure(t, q)
                        for vent, q in zip(
                            self.ventilators, np.ravel(self._inlet_flow)
                        )
                    ],
                )
            )
        }
        for o, bid in enumerate(lung_mesh.outlet_ids):
            conditions[bid] = PressureDirichlet(
                lambda x, y, z, t, _o=o: self._boundary_data(
                    x, [bank.outlet_pressure(_o) for bank in self.windkessel_banks]
                )
            )
        self.bcs = BoundaryConditions(conditions)  # walls default to no-slip
        settings = config.solver
        if not np.isfinite(settings.dt_max):
            # the flow starts from rest: bound the startup step by a small
            # fraction of the fastest member's breathing period (on a
            # copy: the caller's configs stay as given)
            settings = dataclasses.replace(settings, dt_max=min(
                v.settings.period for v in self.ventilators
            ) / 500.0)
        self.solver = IncompressibleNavierStokesSolver(
            lung_mesh.forest,
            config.degree,
            config.viscosity,
            self.bcs,
            settings,
            robustness=config.robustness,
            compute_dtype=config.compute_dtype,
        )
        self.solver.initialize(
            np.zeros(
                self.lead + (self.solver.dof_u.n_dofs,),
                dtype=self.solver.compute_dtype,
            )
        )
        if config.workers >= 2:
            self.solver.distribute_pressure(
                config.workers, trace_timeline=config.trace_timeline
            )

    # ------------------------------------------------------------------
    def _of_lead(self, values, dtype=object):
        """Per-member values as an array of shape ``lead``; ``[()]``
        hands a single run the bare item."""
        out = np.empty(len(values), dtype=dtype)
        for e, v in enumerate(values):
            out[e] = v
        return out.reshape(self.lead)[()]

    def _boundary_data(self, x, values) -> np.ndarray:
        """Per-member scalars -> ``lead + x.shape`` boundary field."""
        shape = np.shape(x)
        values = np.reshape(values, self.lead + (1,) * len(shape))
        return np.broadcast_to(values, self.lead + shape).copy()

    @property
    def time(self) -> float:
        return self.solver.scheme.t

    @property
    def recovery_log(self):
        """Structured :class:`~repro.robustness.RecoveryEvent` history of
        step retries and solver fallbacks during this run."""
        return self.solver.recovery_log

    def step(self, dt: float | None = None):
        """One coupled time step of every member; returns the solver
        statistics (a member run's carry per-member CFL and pressure
        iterations)."""
        was_inhaling = self._of_lead(
            [v.is_inhaling(self.time) for v in self.ventilators], bool
        )
        stats = self.solver.step(dt)
        t0 = time.perf_counter()
        with TRACER.span("coupling"):
            # outlet flows (outward = into the compartments), lead +
            # (n_outlets,), and the inlet's, in one boundary reduction
            rates = self.solver.flow_rates(list(self.lung.outlet_ids) + [INLET_ID])
            for bank, q in zip(
                self.windkessel_banks, rates[..., :-1].reshape(self.n_members, -1)
            ):
                bank.advance(q, stats.dt)
            # inlet flow: inward positive for the tubus model
            self._inlet_flow = -rates[..., -1]
        if METRICS.enabled:
            self._sample_metrics(stats)
        # the coupling stage is part of this step's cost
        elapsed = time.perf_counter() - t0
        stats.wall_time += elapsed
        if TRACER.enabled:
            stats.substep_seconds["coupling"] = elapsed
        self._cycle_inhaled += (
            was_inhaling * np.maximum(self._inlet_flow, 0.0) * stats.dt
        )
        self._steps_this_cycle += 1
        # per-member cycle rollover (protocol periods may differ)
        for idx, vent, records in zip(
            np.ndindex(self.lead), self.ventilators, self._cycle_records
        ):
            cycle = int(self.time / vent.settings.period)
            if cycle > self._current_cycle[idx]:
                vent.end_of_cycle(float(self._cycle_inhaled[idx]))
                records.append(
                    CycleRecord(
                        cycle=int(self._current_cycle[idx]),
                        tidal_volume=float(self._cycle_inhaled[idx]),
                        dp=vent.dp_history[-2],
                        n_steps=int(self._steps_this_cycle[idx]),
                    )
                )
                self._cycle_inhaled[idx] = 0.0
                self._steps_this_cycle[idx] = 0
                self._current_cycle[idx] = cycle
        return stats

    def _sample_metrics(self, stats) -> None:
        """Export the coupling gauges, one ``member`` label value per
        member (dynamic labels allocate: call behind
        ``METRICS.enabled``)."""
        for e, (idx, bank) in enumerate(
            zip(np.ndindex(self.lead), self.windkessel_banks)
        ):
            m = str(e)
            for o, comp in enumerate(bank.compartments):
                key = (m, str(o))
                _WK_FLOW.labels(key).set(comp.flow)
                _WK_VOLUME.labels(key).set(comp.volume)
                _WK_PRESSURE.labels(key).set(bank.outlet_pressure(o))
            _INLET_FLOW.labels(m).set(self._inlet_flow[idx])
            _TIDAL_VOLUME.labels(m).set(bank.total_volume())
            _MEMBER_CFL.labels(m).set(stats.member_cfl[idx])
            _MEMBER_P_ITER.labels(m).set(stats.member_pressure_iterations[idx])

    def run(
        self,
        t_end: float,
        *,
        max_steps: int = 10**7,
        dt_initial: float | None = None,
        checkpoints=None,
    ):
        """Advance to ``t_end``; the shared driver signature (see
        :meth:`repro.ns.solver.IncompressibleNavierStokesSolver.run`).
        ``dt_initial`` seeds the first step when no history exists yet;
        ``checkpoints`` (an optional
        :class:`~repro.robustness.CheckpointManager`) is polled after
        every step so interval policies see the simulated time."""
        stats = []
        if dt_initial is not None and not self.solver.scheme.dt_history:
            stats.append(self.step(min(dt_initial, t_end - self.time)))
            if checkpoints is not None:
                checkpoints.maybe_save(self)
        while self.time < t_end - 1e-12 and len(stats) < max_steps:
            stats.append(self.step())
            if checkpoints is not None:
                checkpoints.maybe_save(self)
        return stats

    def close(self) -> None:
        """Release distributed-execution resources (worker processes and
        shared-memory segments).  Safe to call on a serial run, and
        idempotent; the pool also registers an ``atexit`` fallback."""
        self.solver.undistribute_pressure()

    # ------------------------------------------------------------------
    def tidal_volume_delivered(self):
        """Volume stored in the compartments — the tidal volume during
        the inhalation phase; a float, ``(E,)`` for a member run."""
        return self._of_lead(
            [bank.total_volume() for bank in self.windkessel_banks], float
        )

    def member_velocity(self, e: int) -> np.ndarray:
        """Flat velocity vector of member ``e`` of a member run."""
        return np.asarray(self.solver.velocity[e])

    def member_pressure(self, e: int):
        p = self.solver.pressure
        return None if p is None else np.asarray(p[e])

    def member_records(self) -> list[MemberRecord]:
        """End-of-run per-member summaries."""
        return [
            MemberRecord(
                member=e,
                config=cfg,
                tidal_volume=bank.total_volume(),
                dp=vent.dp,
                cycles=list(records),
            )
            for e, (cfg, bank, vent, records) in enumerate(
                zip(self.configs, self.windkessel_banks, self.ventilators,
                    self._cycle_records)
            )
        ]
