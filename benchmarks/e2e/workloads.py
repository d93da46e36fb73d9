"""The four benchmark workloads.

Each workload turns ``(seed, round)`` into the solver's inputs — the
solver only ever sees the generated arrays and configs — and defines one
*op*: the unit that is timed, counted and checked.  A workload object
lives in one fresh process:

``build()``   everything before the first op (mesh, operators, pool)
``op(k)``     the timed unit; op 0 is the first, untimed-for-``op_s`` one
``check(k, result)``  untimed; ``(failures, info)`` — a non-empty list
              of failure strings counts op ``k`` as failed
``finish()``  untimed teardown; ``(failures, metrics)`` of the end-of-run
              checks

Why these four, and which layers each stresses, is recorded once in
``BENCHMARK.json`` and explained in ``README.md``.

Module-level functions of ``repro`` are called through their module
(``connectivity.build_connectivity``) so the traced run's wrappers,
installed on the module attribute, see the call.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import statistics
from time import perf_counter

import numpy as np

#: sine modes (a, b, c) of the Poisson source on the (2, 1, 1) box:
#: sin(a pi x / 2) sin(b pi y) sin(c pi z)
SOURCE_MODES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))


def source_coefficients(seed: int, round_index: int) -> np.ndarray:
    """Four mode amplitudes in ±[0.5, 1.5]: every mode stays excited, so
    the iteration count barely depends on the draw (measured 357–367
    Jacobi-CG iterations, always 11 multigrid-CG iterations)."""
    rng = np.random.default_rng([seed, round_index])
    return rng.uniform(0.5, 1.5, len(SOURCE_MODES)) * rng.choice([-1.0, 1.0], len(SOURCE_MODES))


def box_laplace(refine: int, degree: int = 3):
    """``DGLaplaceOperator`` on ``box((2, 1, 1))`` refined ``refine``
    times, Dirichlet on face 0 — the paper's Fig. 9/10 model problem."""
    from repro.core.dof_handler import DGDofHandler
    from repro.core.operators.laplace import DGLaplaceOperator
    from repro.mesh import connectivity
    from repro.mesh.generators import box
    from repro.mesh.mapping import GeometryField
    from repro.mesh.octree import Forest

    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(refine)
    geo = GeometryField(forest, degree)
    conn = connectivity.build_connectivity(forest)
    return DGLaplaceOperator(DGDofHandler(forest, degree), geo, conn, dirichlet_ids=(1,))


def sine_rhs(op, coefficients) -> np.ndarray:
    def source(x, y, z):
        return sum(
            c * np.sin(0.5 * np.pi * a * x) * np.sin(np.pi * b * y) * np.sin(np.pi * d * z)
            for c, (a, b, d) in zip(coefficients, SOURCE_MODES)
        )

    return op.assemble_rhs(source)


def relative_true_residual(op, b, x) -> float:
    """||b - A x|| / ||b|| recomputed with the serial operator — not the
    recurrence residual the solver reports."""
    return float(np.linalg.norm(b - op.vmult(x)) / np.linalg.norm(b))


class Workload:
    name = ""
    warmup_ops = 1
    #: timed ops of one round of the full document and of the traced round
    timed_ops = 1
    #: floor of a time-budgeted round (a ``--workload`` run's share of
    #: ``--seconds``)
    min_timed_ops = 1

    def __init__(self, seed: int, round_index: int) -> None:
        self.seed = seed
        self.round_index = round_index

    def build(self) -> None:
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> tuple[list[str], dict]:
        raise NotImplementedError

    def finish(self) -> tuple[list[str], dict]:
        return [], {}

    _nonfinite_seen = 0

    def new_nonfinite_vcycles(self, preconditioner) -> int:
        """Non-finite V-cycles ``preconditioner`` counted since the last
        call (0 for a preconditioner without the counter)."""
        seen = getattr(preconditioner, "nonfinite_vcycles", 0)
        new, self._nonfinite_seen = seen - self._nonfinite_seen, seen
        return new

    # -- traced run only ------------------------------------------------
    def timed_ops_start(self) -> None:
        """Called once, before the first op that counts for ``op_s``."""

    def extra_layer_metrics(self, n_timed_ops: int) -> dict:
        """Layer metrics only the workload's own objects can report;
        called after the last op and before :meth:`finish`."""
        return {}

    # what the micro-probes are sized from
    def kernel_batch(self) -> tuple[int, int]:
        """``(n_cells, n_dofs_1d)`` of the workload's cell batch."""
        raise NotImplementedError

    def face_scatter(self) -> tuple[np.ndarray, int]:
        """``(cell indices of the largest interior face batch, n_cells)``."""
        raise NotImplementedError


def _largest_face_batch(conn) -> np.ndarray:
    return max((b.cells_m for b in conn.interior), key=len)


# ----------------------------------------------------------------------
class PoissonBox(Workload):
    """op = one multigrid-preconditioned CG solve to 1e-10."""

    name = "poisson_box_r3"
    warmup_ops = 1
    timed_ops = 4
    min_timed_ops = 2
    refine = 3
    tol = 1e-10
    residual_bound = 1e-9

    def build(self) -> None:
        from repro.solvers.multigrid import HybridMultigridPreconditioner

        self.operator = box_laplace(self.refine)
        self.preconditioner = HybridMultigridPreconditioner(self.operator)
        self.b = sine_rhs(self.operator, source_coefficients(self.seed, self.round_index))

    def op(self, k: int):
        from repro.solvers import krylov

        return krylov.conjugate_gradient(
            self.operator, self.b, self.preconditioner, tol=self.tol)

    def check(self, k: int, result):
        failures = []
        if not result.converged:
            failures.append(f"op {k}: CG did not converge ({result.failure_reason})")
        res = relative_true_residual(self.operator, self.b, result.x)
        if not res <= self.residual_bound:
            failures.append(f"op {k}: true residual {res:.3e} > {self.residual_bound:.0e}")
        return failures, {"iterations": result.n_iterations, "solves": 1,
                          "nonconverged": int(not result.converged),
                          "nonfinite_vcycles": self.new_nonfinite_vcycles(self.preconditioner),
                          "true_residual": res}

    def kernel_batch(self):
        return self.operator.dof.n_cells, self.operator.kern.n_dofs_1d

    def face_scatter(self):
        return _largest_face_batch(self.operator.conn), self.operator.dof.n_cells


# ----------------------------------------------------------------------
class CGJacobiDistributed(PoissonBox):
    """op = one Jacobi-preconditioned CG solve to 1e-4 whose mat-vec runs
    on a 2-worker shared-memory pool."""

    name = "cg_jacobi_box_r3_w2"
    timed_ops = 4
    min_timed_ops = 1
    tol = 1e-4
    max_iter = 2000
    residual_bound = 2e-4
    n_workers = 2
    #: iterations of the serial reference the bitwise check replays
    bitwise_prefix = 40
    speedup_iterations = 60

    def build(self) -> None:
        from repro.parallel.runtime import DistributedSolverContext
        from repro.solvers.jacobi import JacobiPreconditioner

        self.operator = box_laplace(self.refine)
        self.preconditioner = JacobiPreconditioner(self.operator)
        self.b = sine_rhs(self.operator, source_coefficients(self.seed, self.round_index))
        self.context = DistributedSolverContext(self.operator, None, n_workers=self.n_workers)

    def solve(self, operator, max_iter: int | None = None):
        from repro.solvers import krylov

        return krylov.conjugate_gradient(
            operator, self.b, self.preconditioner, tol=self.tol,
            max_iter=max_iter or self.max_iter)

    def op(self, k: int):
        return self.solve(self.context.operator)

    def check(self, k: int, result):
        failures, info = super().check(k, result)
        if k == 0 and self.round_index == 0:
            # the fp64 contract: distributed == serial bit for bit.  CG is
            # deterministic, so a serial solve capped at N iterations must
            # reproduce the first N+1 residuals of the distributed history
            n = self.bitwise_prefix
            serial = self.solve(self.operator, max_iter=n)
            if serial.residuals != result.residuals[: len(serial.residuals)]:
                failures.append(
                    f"op 0: distributed residual history differs from serial in its first {n} iterations")
        return failures, info

    def timed_ops_start(self) -> None:
        self._phases_before = self.context.worker_phase_totals()

    def extra_layer_metrics(self, n_timed_ops: int) -> dict:
        from layers import runtime_metrics

        metrics = runtime_metrics(self.context, self._phases_before, n_timed_ops)
        # same work on both sides: 3 serial vs 3 distributed solves, each
        # capped at ``speedup_iterations`` CG iterations
        serial, distributed = [], []
        for _ in range(3):
            for times, operator in ((serial, self.operator), (distributed, self.context.operator)):
                t = perf_counter()
                self.solve(operator, max_iter=self.speedup_iterations)
                times.append(perf_counter() - t)
        metrics["parallel.runtime.speedup_vs_serial"] = (
            statistics.median(serial) / statistics.median(distributed))
        return metrics

    def finish(self):
        self.context.close()
        failures = []
        leaked = glob.glob(f"/dev/shm/repro{os.getpid()}p*")
        if leaked:
            failures.append(f"shared-memory segments survived close(): {leaked}")
        alive = multiprocessing.active_children()
        if alive:
            failures.append(f"{len(alive)} worker process(es) survived close()")
        return failures, {"parallel.runtime.shm_leaked_segments": float(len(leaked))}


# ----------------------------------------------------------------------
class NSBeltrami(Workload):
    """op = one dual-splitting time step of the Beltrami flow."""

    name = "ns_beltrami_r2"
    warmup_ops = 2
    #: never fewer: the accuracy check sits at the last of them
    timed_ops = min_timed_ops = 20
    dt = 0.01
    nu = 0.1
    degree = 3
    refine = 2
    error_bound = 2e-5
    #: the op that reaches t = 0.22, where the accuracy bound was sized
    #: (measured error 1.13e-5)
    accuracy_step = 21

    def build(self) -> None:
        from repro.mesh.generators import box
        from repro.mesh.octree import Forest
        from repro.ns.analytic import BeltramiFlow
        from repro.ns.bc import BoundaryConditions, VelocityDirichlet
        from repro.ns.solver import IncompressibleNavierStokesSolver, SolverSettings
        from repro.verification.mms import resolve_body_force

        self.flow = BeltramiFlow(nu=self.nu, a=np.pi / 8, d=np.pi / 2)
        forest = Forest(
            box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
        ).refine_all(self.refine)
        bcs = BoundaryConditions({1: VelocityDirichlet(self.flow.velocity)})
        self.solver = IncompressibleNavierStokesSolver(
            forest, self.degree, self.nu, bcs,
            SolverSettings(solver_tolerance=1e-8),
            body_force=resolve_body_force(self.flow, self.nu),
        )
        self.solver.initialize(self.flow.velocity)
        self.last_step = -1

    def op(self, k: int):
        return self.solver.step(self.dt)

    def _error_failure(self, k: int) -> list[str]:
        err = self.solver.velocity_error_l2(self.flow.velocity, self.solver.scheme.t)
        if not err <= self.error_bound:
            return [f"op {k}: velocity L2 error {err:.3e} > {self.error_bound:.0e} "
                    f"at t={self.solver.scheme.t:.2f}"]
        return []

    def check(self, k: int, stats):
        self.last_step = k
        cap = self.solver.settings.max_solver_iterations
        its = (stats.pressure_iterations, stats.viscous_iterations, stats.penalty_iterations)
        failures = []
        if max(its) >= cap:
            failures.append(f"op {k}: an inner solve hit the {cap}-iteration cap {its}")
        if not np.isfinite(self.solver.velocity).all():
            failures.append(f"op {k}: non-finite velocity")
        if k == self.accuracy_step:
            failures += self._error_failure(k)
        info = step_info([stats], cap, self.solver.recovery_log)
        info["nonfinite_vcycles"] = self.new_nonfinite_vcycles(self.solver.pressure_pre)
        return failures, info

    def finish(self):
        return (self._error_failure(self.last_step) if self.last_step >= 0 else []), {}

    def kernel_batch(self):
        return self.solver.forest.n_cells, self.degree + 1

    def face_scatter(self):
        return _largest_face_batch(self.solver.conn), self.solver.forest.n_cells


def step_info(stats: list, cap: int, recovery_log) -> dict:
    """Iteration facts of a list of ``StepStatistics`` for the layer metrics."""
    return {
        "steps": len(stats),
        "pressure_iterations": sum(s.pressure_iterations for s in stats),
        "viscous_iterations": sum(s.viscous_iterations for s in stats),
        "penalty_iterations": sum(s.penalty_iterations for s in stats),
        "penalty_maxiter_steps": sum(s.penalty_iterations >= cap for s in stats),
        "iterations": sum(s.pressure_iterations + s.viscous_iterations + s.penalty_iterations
                          for s in stats),
        "solves": 3 * len(stats),
        "nonconverged": sum((s.pressure_iterations >= cap) + (s.viscous_iterations >= cap)
                            + (s.penalty_iterations >= cap) for s in stats),
        "recovery_events": len(recovery_log),
        "fallback_escalations": sum(e.kind == "fallback_escalation" for e in recovery_log),
    }


# ----------------------------------------------------------------------
class LungCold(Workload):
    """op = build a 2-generation lung simulation from cold, take its
    first 24 coupled time steps, close it."""

    name = "lung_g2_cold"
    warmup_ops = 1
    timed_ops = 6
    min_timed_ops = 5
    n_steps = 24
    dt_first = 1e-5
    #: tidal volume after 24 steps of the unperturbed configuration (op 0)
    golden_tidal_ml = 0.100794
    #: the seeded windkessel scales move it by under 1 %; outside this
    #: band the trajectory has left the healthy start-up window
    tidal_band = 0.02
    scale_range = (0.9, 1.1)

    def build(self) -> None:
        """Nothing: the op builds the simulation itself, cold."""

    def config(self, k: int):
        """Op 0 runs the unperturbed (golden) patient; later ops draw the
        windkessel resistance/compliance multipliers — the patient
        variability knobs of ``RunConfig`` — from ``(seed, round, k)``.
        The airway tree stays the seed-0 tree: other trees change the
        cell count (104 vs 108) and one of the first six hits the
        penalty solver's iteration cap inside the window (see README)."""
        from repro.robustness.config import RunConfig

        if k == 0:
            r = c = 1.0
        else:
            rng = np.random.default_rng([self.seed, self.round_index, k])
            r, c = rng.uniform(*self.scale_range, 2)
        return RunConfig(generations=2, degree=2, seed=0,
                         windkessel_resistance_scale=float(r),
                         windkessel_compliance_scale=float(c))

    def op(self, k: int):
        from repro.lung.simulation import LungVentilationSimulation

        sim = LungVentilationSimulation(self.config(k))
        try:
            stats = [sim.step(self.dt_first)]
            for _ in range(self.n_steps - 1):
                stats.append(sim.step())
        finally:
            sim.close()
        return sim, stats

    def check(self, k: int, result):
        sim, stats = result
        solver = sim.solver
        self._batch = (solver.forest.n_cells, sim.config.degree + 1)
        self._scatter = (_largest_face_batch(solver.conn), solver.forest.n_cells)
        cap = solver.settings.max_solver_iterations
        failures = []
        if sim.recovery_log:
            failures.append(f"op {k}: {len(sim.recovery_log)} recovery event(s): "
                            f"{sim.recovery_log[0].kind} ({sim.recovery_log[0].reason})")
        capped = [i for i, s in enumerate(stats) if s.penalty_iterations >= cap]
        if capped:
            failures.append(f"op {k}: penalty solve at the {cap}-iteration cap in steps {capped}")
        tidal_ml = sim.tidal_volume_delivered() * 1e6
        rtol = 1e-3 if k == 0 else self.tidal_band
        if not (tidal_ml > 0 and abs(tidal_ml - self.golden_tidal_ml) <= rtol * self.golden_tidal_ml):
            failures.append(f"op {k}: tidal volume {tidal_ml:.6f} ml not within "
                            f"{rtol:g} of {self.golden_tidal_ml} ml")
        info = step_info(stats, cap, sim.recovery_log)
        info["tidal_volume_ml"] = tidal_ml
        info["nonfinite_vcycles"] = getattr(solver.pressure_pre, "nonfinite_vcycles", 0)
        return failures, info

    def kernel_batch(self):
        return self._batch

    def face_scatter(self):
        return self._scatter


WORKLOADS = {w.name: w for w in (PoissonBox, NSBeltrami, LungCold, CGJacobiDistributed)}
