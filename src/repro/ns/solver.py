"""The incompressible Navier–Stokes solver: assembles all matrix-free
operators over one forest and drives the dual splitting scheme with
CFL-adaptive time steps — the solver whose wall-time per time step is
the headline metric of the paper (Tables 2-3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.backend import resolve_dtype
from ..core.dof_handler import DGDofHandler
from ..core.plans import SCRATCH
from ..core.operators import (
    ConvectiveOperator,
    DGLaplaceOperator,
    DivergenceContinuityPenalty,
    DivergenceOperator,
    GradientOperator,
    HelmholtzOperator,
    InverseMassOperator,
    MassOperator,
    PenaltyStepOperator,
    VectorDGLaplace,
)
from ..core.operators.base import FaceLoop, in_loop_order, tangential_dims
from ..mesh.connectivity import build_connectivity
from ..mesh.mapping import GeometryField, normal_dot, to_physical, trace
from ..mesh.octree import Forest
from ..robustness.recovery import (
    FallbackTier,
    PressureFallbackChain,
    RecoveryEvent,
    recoverable_step,
    state_energy,
)
from ..solvers.jacobi import JacobiPreconditioner
from ..solvers.multigrid import HybridMultigridPreconditioner, operator_to_dtype
from ..telemetry.metrics import METRICS
from ..timeint.cfl import CFLController
from ..timeint.dual_splitting import DualSplittingScheme, SplittingOperators
from .bc import BoundaryConditions
from .postprocess import curl_of_gradient

# physics health probes sampled once per time step while the metric
# registry is enabled (each probe is at most one reduction or one
# cell-local gradient evaluation — far below a single solve)
_STEPS = METRICS.counter("repro_steps_total", "completed time steps")
_SIM_TIME = METRICS.gauge("repro_sim_time_seconds", "simulated time")
_STEP_DT = METRICS.gauge("repro_step_dt_seconds", "current time-step size")
_STEP_WALL = METRICS.histogram(
    "repro_step_wall_seconds", "wall time per time step",
    buckets=(0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0),
)
_CFL_REALIZED = METRICS.histogram(
    "repro_cfl_realized", "realized CFL number per step (inverse Eq. (6))",
    buckets=(0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 2.0),
)
_DIVERGENCE_L2 = METRICS.gauge(
    "repro_divergence_l2",
    "L2 norm of div(u) over the domain — the quantity the penalty step "
    "controls",
)
_KINETIC_ENERGY = METRICS.gauge(
    "repro_kinetic_energy",
    "DoF-vector kinetic-energy proxy 0.5 u.u (the same scale the "
    "energy-blowup validation of repro.robustness monitors)",
)
_PRESSURE_RESIDUAL = METRICS.gauge(
    "repro_pressure_final_residual",
    "final relative residual of the latest pressure Poisson solve",
)


@dataclass
class SolverSettings:
    """Numerical parameters of the flow solver (paper's defaults)."""

    cfl: float = 0.4
    dt_max: float = float("inf")  # cap for the CFL-adaptive step; also the
    # startup step when the flow starts from rest (u = 0 has no CFL scale)
    time_order: int = 2
    solver_tolerance: float = 1e-3  # application-run tolerance (Section 5.3)
    zeta_div: float = 1.0
    zeta_cont: float = 1.0
    use_multigrid: bool = True
    smoother_degree: int = 3
    max_solver_iterations: int = 500


class IncompressibleNavierStokesSolver:
    """Velocity degree ``k`` (>= 2), pressure degree ``k - 1``."""

    def __init__(
        self,
        forest: Forest,
        degree: int,
        viscosity: float,
        bcs: BoundaryConditions,
        settings: SolverSettings | None = None,
        body_force=None,
        periodic=None,
        robustness=None,
        compute_dtype=None,
    ) -> None:
        """``periodic`` forwards translational periodicity declarations to
        :func:`repro.mesh.connectivity.build_connectivity`; periodic runs
        use the Jacobi-preconditioned pressure solve (the conforming
        auxiliary space of the hybrid multigrid is not periodic).

        ``robustness`` (a :class:`repro.robustness.RobustnessSettings`)
        enables the fault-tolerant stepping harness: per-step divergence
        validation with rollback/retry, and the deterministic pressure
        fallback chain mixed-precision MG -> double-precision MG ->
        Jacobi-CG with a raised iteration cap.

        ``compute_dtype`` (``float64``/``float32``; default
        :data:`repro.core.backend.DEFAULT_DTYPE`) selects the precision
        of the forward solve.  Operators are always *assembled* in
        double; in single precision the scheme
        drives dtype-cast clones, while the pressure Poisson outer CG,
        the fallback chain's double tier, and checkpoints keep double
        precision (Section 3.4 mixed precision)."""
        if degree < 2:
            raise ValueError("mixed-order (k, k-1) spaces need k >= 2")
        self.forest = forest
        self.degree = degree
        self.nu = float(viscosity)
        self.bcs = bcs
        self.compute_dtype = resolve_dtype(compute_dtype)
        self.settings = settings or SolverSettings()
        if periodic and self.settings.use_multigrid:
            self.settings.use_multigrid = False

        self.conn = build_connectivity(forest, periodic=periodic)
        self.geo_u = GeometryField(forest, degree)
        self.geo_over = GeometryField(forest, degree, n_q_points=degree + 2)
        self.geo_p = GeometryField(forest, degree - 1)
        self.dof_u = DGDofHandler(forest, degree, n_components=3)
        self.dof_u_scalar = DGDofHandler(forest, degree)
        self.dof_p = DGDofHandler(forest, degree - 1)

        present = {b.boundary_id for b in self.conn.boundary}
        self.velocity_dirichlet = bcs.velocity_dirichlet_ids(present)
        self.pressure_dirichlet = bcs.pressure_dirichlet_ids(present)

        # -- operators ------------------------------------------------------
        # held while the operators are built: computed once for all of them
        face_metrics = self.geo_u.all_face_metrics(self.conn)
        self.mass_u = MassOperator(self.dof_u, self.geo_u)
        self.inv_mass_u = InverseMassOperator(self.dof_u, self.geo_u)
        scalar_laplace = DGLaplaceOperator(
            self.dof_u_scalar, self.geo_u, self.conn,
            dirichlet_ids=self.velocity_dirichlet,
        )
        self.vector_laplace = VectorDGLaplace(scalar_laplace, self.dof_u)
        self.helmholtz = HelmholtzOperator(
            self.mass_u, self.vector_laplace, self.nu,
            boundary_rhs_fn=self._viscous_boundary_rhs,
        )
        self.convective = ConvectiveOperator(self.dof_u, self.geo_over, self.conn, bcs)
        self.divergence = DivergenceOperator(
            self.dof_u, self.dof_p, self.geo_u, self.conn, bcs
        )
        self.gradient = GradientOperator(
            self.dof_u, self.dof_p, self.geo_u, self.conn, bcs
        )
        self.penalty = DivergenceContinuityPenalty(
            self.dof_u, self.geo_u, self.conn,
            zeta_div=self.settings.zeta_div, zeta_cont=self.settings.zeta_cont,
        )
        self.penalty_step = PenaltyStepOperator(self.mass_u, self.penalty)
        self.pressure_poisson = DGLaplaceOperator(
            self.dof_p, self.geo_p, self.conn,
            dirichlet_ids=self.pressure_dirichlet,
        )
        # wall rows of the consistent pressure Neumann data: a four-sheet
        # velocity loop over the value loops' table (same chunks), and the
        # rows' J^{-T} (all nine entries) with its reference columns in the
        # (n, a, b) frame
        loop = self.divergence.loop_u
        self._wall_loop = FaceLoop(loop.kern, forest.n_cells, forest.n_cells, *loop.table)
        _, bms = face_metrics
        self._wall_jinv_t = in_loop_order(
            [fm.jinv_t[:, :, [b.face // 2, *tangential_dims(b.face)]]
             for b, fm in zip(self.conn.boundary, bms)],
            loop.bsrc, (9, self.geo_u.kernel.n_q_points ** 2))
        if self.settings.use_multigrid and degree - 1 >= 1:
            self.pressure_pre = HybridMultigridPreconditioner(
                self.pressure_poisson, smoother_degree=self.settings.smoother_degree
            )
        else:
            self.pressure_pre = JacobiPreconditioner(self.pressure_poisson)

        self.robustness = robustness
        self.recovery_log: list[RecoveryEvent] = []
        self.pressure_fallback = None
        if robustness is not None and robustness.enable_fallback:
            self.pressure_fallback = self._build_pressure_fallback(robustness)

        self._body_force_fn = body_force
        tol = self.settings.solver_tolerance
        # forward-path operators at the configured compute dtype (a
        # float64 run gets the originals back unchanged); the double
        # masters stay on `self` for assembly, diagnostics, and the
        # fallback chain.  The pressure Poisson operator stays double:
        # its preconditioner handles the single-precision V-cycle while
        # the outer iteration accumulates in double (Section 3.4).
        cast = lambda op: operator_to_dtype(op, self.compute_dtype)  # noqa: E731
        self.scheme = DualSplittingScheme(
            SplittingOperators(
                mass=cast(self.mass_u),
                inverse_mass=cast(self.inv_mass_u),
                convective=cast(self.convective),
                divergence=cast(self.divergence),
                gradient=cast(self.gradient),
                helmholtz=cast(self.helmholtz),
                penalty_step=cast(self.penalty_step),
                pressure_poisson=self.pressure_poisson,
                pressure_preconditioner=self.pressure_pre,
                body_force=self._assembled_body_force if body_force else None,
                pressure_neumann_rhs=(
                    self._pressure_neumann_rhs if self.velocity_dirichlet else None
                ),
                pressure_dirichlet_rhs=(
                    self._pressure_dirichlet_rhs if self.pressure_dirichlet else None
                ),
            ),
            order=self.settings.time_order,
            pressure_tol=tol,
            viscous_tol=tol,
            penalty_tol=tol,
            pressure_has_dirichlet=bool(self.pressure_dirichlet),
            max_solver_iterations=self.settings.max_solver_iterations,
            pressure_fallback=self.pressure_fallback,
            state_dtype=self.compute_dtype,
        )
        self.cfl = CFLController(
            cfl=self.settings.cfl, degree=degree, dt_max=self.settings.dt_max
        )
        self._dist_ctx = None

    # -- distributed execution ---------------------------------------------
    @property
    def distributed_context(self):
        """The live :class:`~repro.parallel.DistributedSolverContext`,
        or ``None`` while the pressure solve runs serially — callers
        read its merged worker timeline / phase totals from here."""
        return self._dist_ctx

    def distribute_pressure(self, n_workers: int,
                            distribute_single_precision: bool = False,
                            trace_timeline: bool = False):
        """Run the pressure-Poisson mat-vec on a shared-memory worker
        pool (:class:`repro.parallel.DistributedSolverContext`).

        The outer CG stays in double precision on the master; only its
        ``vmult`` fans out, so a distributed fp64 step is bitwise
        identical to the serial one.  The fallback chain keeps driving
        the serial master operator — a worker crash surfaces as a
        :class:`repro.parallel.WorkerCrash`, not as a silently slower
        solve.  Returns the context; call :meth:`undistribute_pressure`
        (or close the context) when done."""
        from ..parallel.runtime import DistributedSolverContext

        if self._dist_ctx is not None:
            raise RuntimeError("pressure solve is already distributed")
        pre = self.pressure_pre
        if not isinstance(pre, HybridMultigridPreconditioner):
            pre = None
        self._dist_ctx = DistributedSolverContext(
            self.pressure_poisson, pre, n_workers=n_workers,
            distribute_single_precision=distribute_single_precision,
            trace_timeline=trace_timeline,
        )
        self.scheme.ops.pressure_poisson = self._dist_ctx.operator
        return self._dist_ctx

    def undistribute_pressure(self) -> None:
        """Restore the serial pressure operator and close the pool."""
        if self._dist_ctx is None:
            return
        self.scheme.ops.pressure_poisson = self.pressure_poisson
        ctx, self._dist_ctx = self._dist_ctx, None
        ctx.close()

    def _build_pressure_fallback(self, robustness) -> PressureFallbackChain:
        """The documented escalation order for the pressure solve.

        Tier 0 is the configured preconditioner (normally the
        mixed-precision hybrid multigrid); the double-precision V-cycle
        and the Jacobi-CG rescue tier are built lazily on first
        activation."""
        op = self.pressure_poisson
        tiers = []
        if isinstance(self.pressure_pre, HybridMultigridPreconditioner):
            tiers.append(FallbackTier("mg_mixed", lambda: self.pressure_pre))
            tiers.append(
                FallbackTier(
                    "mg_double",
                    lambda: HybridMultigridPreconditioner(
                        op,
                        smoother_degree=self.settings.smoother_degree,
                        precision=np.float64,
                    ),
                )
            )
        else:
            tiers.append(FallbackTier("jacobi", lambda: self.pressure_pre))
        tiers.append(
            FallbackTier(
                "jacobi_cg",
                lambda: JacobiPreconditioner(op),
                max_iter_scale=robustness.fallback_max_iter_scale,
            )
        )
        return PressureFallbackChain(tiers)

    # ------------------------------------------------------------------
    def compute_vorticity(self, u_flat: np.ndarray) -> np.ndarray:
        """L2 projection of curl(u) into the velocity space (cell-local,
        inverted by the fast mass inverse) — needed by the consistent
        pressure Neumann boundary condition."""
        dof, kern = self.dof_u, self.geo_u.kernel
        cm = self.geo_u.cell_metrics()
        G = to_physical(cm.jinv_t, kern.gradients_cm(dof.lanes(u_flat)))
        rhs = kern.integrate_values(curl_of_gradient(G, 4) * cm.jxw)
        return self.inv_mass_u.vmult(rhs.reshape(u_flat.shape))

    def _pressure_dirichlet_rhs(self, t: float) -> np.ndarray:
        """Weak Dirichlet data of the pressure Poisson operator."""
        per_id = {
            bid: (lambda x, y, z, _bid=bid: self.bcs.pressure_value(_bid, x, y, z, t))
            for bid in self.pressure_dirichlet
        }
        return self.pressure_poisson.assemble_rhs(dirichlet=per_id)

    def _pressure_neumann_rhs(self, t_new, u_history, t_history, coeffs, dt):
        """Consistent pressure Neumann data on velocity-Dirichlet faces:
        ``dp/dn = -n . (dg/dt + sum_i beta_i conv(u_i) + nu curl(omega))``
        with ``omega`` the vorticity of ``sum_i beta_i u_i`` (curl is
        linear; Fehn et al. 2017) and ``dg/dt`` the BDF derivative of
        each wall's data, evaluated once per time level.  The wall rows
        of a four-sheet loop give value and gradient of every field; the
        pressure value loop (same chunks) tests the data.  Leading axes
        are member axes; ``g`` may be member-stacked or not."""
        wall, ploop, fd = self._wall_loop, self.divergence.loop_p, self.divergence.face_data
        lead = np.shape(u_history[0])[:-1]
        ids = self.velocity_dirichlet

        def g_at(t):  # (*lead, 3, B, q*q)
            return wall.boundary_data(fd.points, {
                bid: (lambda x, y, z, _bc=self.bcs.get(bid): _bc.g(x, y, z, t)) for bid in ids},
                comps=1)

        total = coeffs.gamma0 * g_at(t_new)
        for alpha, t_i in zip(coeffs.alpha, t_history):
            total = total - alpha * g_at(t_i)
        total = total / dt
        total = np.array(np.broadcast_to(total, lead + total.shape[-3:])).reshape(
            (-1,) + total.shape[-3:])
        beta = coeffs.beta[:len(u_history)]
        omega = self.compute_vorticity(sum(b * u for b, u in zip(beta, u_history)))
        for weight, field in [*zip(beta, u_history), (None, omega)]:
            src = SCRATCH.take("fl.src", (3 * total.shape[0], wall.size), field.dtype)
            ul = self.dof_u.lanes(field)
            wall.sheets(ul.reshape((-1,) + ul.shape[-4:]), src)
            for ch in wall.chunks:
                b = slice(ch.b0, ch.b0 + ch.F - ch.Fi)
                Q = wall.trace(src, ch, slice(ch.Fi, ch.F), full=True)
                Q = Q.reshape((-1, 3) + Q.shape[1:])  # (e, i, v|n|a|b, rows, q)
                # physical gradient grad[l, e, i] = d u_i / d x_l from the
                # frame derivatives
                grad = to_physical(self._wall_jinv_t[:, b], np.moveaxis(Q[:, :, 1:], 2, 0))
                if weight is None:
                    total[..., b, :] += self.nu * curl_of_gradient(grad, 2)
                    continue
                v = Q[:, :, 0]  # conv(u) = div(u (x) u) = sum_j d_j(u_j u)
                total[..., b, :] += weight * sum(v[:, j, None] * grad[j] + grad[j, :, j, None] * v
                                                 for j in range(3))
        h = -normal_dot(fd.normal[:, wall.bface], total)
        h *= fd.jxw[wall.bface] * np.isin(wall.bids, ids)[:, None]
        dst = np.zeros((h.shape[0], ploop.size))
        for ch in ploop.chunks:
            ploop.integrate(h[:, ch.b0:ch.b0 + ch.F - ch.Fi], ch, dst, slice(ch.Fi, ch.F))
        out = np.zeros((h.shape[0],) + (self.dof_p.n1,) * 3 + (self.dof_p.n_cells,))
        ploop.expand(dst, out)
        return out.reshape(lead + (-1,))

    def _viscous_boundary_rhs(self, t: float):
        """Weak velocity-Dirichlet data of the viscous step: every wall's
        data once on all of its points, components (and members) on the
        scalar assembly's leading axis."""
        return self.vector_laplace.assemble_rhs(dirichlet={
            bid: (lambda x, y, z, _bc=self.bcs.get(bid): _bc.g(x, y, z, t))
            for bid in self.velocity_dirichlet})

    def _assembled_body_force(self, t: float) -> np.ndarray:
        """integral(f . v) assembled into the velocity space."""
        cm = self.geo_u.cell_metrics()
        f = np.asarray(self._body_force_fn(*cm.points, t))
        # (3, q, q, q, N): the components ride the lane block's batch axis
        out = self.geo_u.kernel.integrate_values(f * cm.jxw)
        return out.reshape(out.shape[:-5] + (-1,))

    # ------------------------------------------------------------------
    def interpolate_velocity(self, fn, t: float = 0.0) -> np.ndarray:
        """Nodal interpolation of ``fn(x, y, z, t) -> (3, ...)``: one call
        on the nodal coordinates of all cells in lane order."""
        # (3, n, n, n, N): the velocity nodes are the geometry nodes
        X = np.moveaxis(self.geo_u.X, 0, -1)
        return np.asarray(fn(X[0].ravel(), X[1].ravel(), X[2].ravel(), t)).reshape(-1)

    def initialize(self, u0=None, t0: float = 0.0) -> None:
        if u0 is None:
            u = self.dof_u.zeros(dtype=self.compute_dtype)
        elif callable(u0):
            u = self.interpolate_velocity(u0, t0)
        else:
            u = np.asarray(u0, dtype=self.compute_dtype)
        self.scheme.initialize(u, t0)

    def _stamp_cfl(self, stats, vmax):
        """Record the realized CFL number on the step statistics: the
        inverse of Eq. (6), ``CFL = dt * k^1.5 * max|J^{-1} u|``.

        ``vmax`` has the shape of the state's leading axes and so does
        ``member_cfl``; members share dt, so the headline ``cfl`` is the
        largest member's."""
        stats.member_cfl = stats.dt * self.degree**1.5 * vmax
        stats.cfl = float(np.max(stats.member_cfl))
        if METRICS.enabled:
            self._sample_health(stats)
        return stats

    def _sample_health(self, stats) -> None:
        """Record per-step physics-health metrics (registry enabled
        only; ``step`` and ``run`` both pass through here).  Divergence
        is the one probe that is not free — one gradient evaluation per
        step — which is why the whole sampler is gated."""
        _STEPS.inc()
        _SIM_TIME.set(stats.t)
        _STEP_DT.set(stats.dt)
        _STEP_WALL.observe(stats.wall_time)
        _CFL_REALIZED.observe(stats.cfl)
        _KINETIC_ENERGY.set(0.5 * state_energy(self.scheme.velocity))
        _DIVERGENCE_L2.set(self.divergence_l2())
        _PRESSURE_RESIDUAL.set(stats.pressure_residual)

    def _advance(self, dt: float):
        """One scheme step, through the recovery harness when the
        solver carries a robustness policy (a diverged step rolls back
        and retries with a backed-off ``dt``; the realized step size is
        whatever the successful attempt used)."""
        if self.robustness is not None and self.robustness.max_step_retries > 0:
            return recoverable_step(
                self.scheme, dt, self.robustness, events=self.recovery_log
            )
        return self.scheme.step(dt)

    def step(self, dt: float | None = None):
        vmax = self.convective.max_reference_velocity(self.scheme.velocity)
        if dt is None:
            prev = self.scheme.dt_history[0] if self.scheme.dt_history else None
            # ensemble members share dt: the fastest member sets the CFL
            dt = self.cfl.step_size(float(np.max(vmax)), prev)
        # stamp the realized CFL for fixed dt too, so telemetry and the
        # verification ladders can flag stability-limit violations
        return self._stamp_cfl(self._advance(dt), vmax)

    def run(
        self,
        t_end: float,
        *,
        max_steps: int = 10**7,
        dt_initial: float | None = None,
        checkpoints=None,
    ):
        """Advance to ``t_end`` with adaptive steps; returns the list of
        per-step statistics.

        This is the shared driver signature (keyword-only after
        ``t_end``) also implemented by
        :meth:`repro.lung.simulation.LungVentilationSimulation.run`:
        ``dt_initial`` seeds the first step when no history exists yet,
        and ``checkpoints`` (an optional
        :class:`~repro.robustness.CheckpointManager`) is polled after
        every step so interval policies see the simulated time."""
        stats = []
        if dt_initial is not None and not self.scheme.dt_history:
            stats.append(self.step(min(dt_initial, t_end - self.scheme.t)))
            if checkpoints is not None:
                checkpoints.maybe_save(self)
        while self.scheme.t < t_end - 1e-14 and len(stats) < max_steps:
            vmax = self.convective.max_reference_velocity(self.scheme.velocity)
            prev = self.scheme.dt_history[0] if self.scheme.dt_history else None
            dt = self.cfl.step_size(float(np.max(vmax)), prev)
            dt = min(dt, t_end - self.scheme.t)
            stats.append(self._stamp_cfl(self._advance(dt), vmax))
            if checkpoints is not None:
                checkpoints.maybe_save(self)
        return stats

    # -- post-processing ---------------------------------------------------
    @property
    def velocity(self) -> np.ndarray:
        return self.scheme.velocity

    @property
    def pressure(self):
        return self.scheme.pressure

    def velocity_error_l2(self, exact, t: float) -> float:
        """L2 error of the velocity against ``exact(x, y, z, t) -> (3, ...)``."""
        cm = self.geo_u.cell_metrics()
        uq = self.geo_u.kernel.values(self.dof_u.lanes(self.velocity))
        ex = np.asarray(exact(*cm.points, t))
        return float(np.sqrt(np.sum((uq - ex) ** 2 * cm.jxw)))

    def _divergence_field(self) -> np.ndarray:
        """div(u) at quadrature points; ensemble states get a leading
        member axis."""
        g = self.geo_u.kernel.gradients_cm(self.dof_u.lanes(self.velocity))
        return trace(to_physical(self.geo_u.cell_metrics().jinv_t, g))

    def max_divergence(self) -> float:
        """max |div u| at quadrature points — the quantity the penalty
        step controls (the batch maximum for ensemble states)."""
        return float(np.abs(self._divergence_field()).max())

    def divergence_l2(self) -> float:
        """``||div u||_L2`` over the domain — the integral counterpart
        of :meth:`max_divergence`, smoother under mesh refinement and
        the quantity the health metrics track per step.  Ensemble states
        report the root-sum-square over all members."""
        div = self._divergence_field()
        cm = self.geo_u.cell_metrics()
        return float(np.sqrt(np.sum(div**2 * cm.jxw)))

    def flow_rate(self, boundary_id: int):
        """Volumetric flow rate through a boundary (outward positive).

        Returns a float; ensemble states yield a per-member ``(E,)``
        array."""
        return self._flow_rate_of(self.velocity, boundary_id)

    def flow_rates(self, boundary_ids):
        """Flow rates through every id of ``boundary_ids`` (outward
        positive), ``(*lead, len(ids))``: one reduction over the boundary
        rows, grouped by id."""
        return self._flow_rates_of(self.velocity, boundary_ids)

    def _flow_rate_of(self, u_flat: np.ndarray, boundary_id: int):
        return self._flow_rates_of(u_flat, [boundary_id])[..., 0]

    def _flow_rates_of(self, u_flat: np.ndarray, boundary_ids):
        loop, fd = self.divergence.loop_u, self.divergence.face_data
        ul = self.dof_u.lanes(u_flat)
        v = loop.boundary_values(ul.reshape((-1,) + ul.shape[-4:]))
        v = v.reshape(ul.shape[:-4] + v.shape[1:])
        un = normal_dot(fd.normal[:, loop.bface], v)
        q = (un * fd.jxw[loop.bface]).sum(axis=-1)
        return q @ (loop.bids[:, None] == np.asarray(boundary_ids)).astype(q.dtype)
