"""Method-of-manufactured-solutions (MMS) drivers.

Takes any smooth velocity/pressure field, derives the forcing that makes
it an exact solution — through the solution object's own ``body_force``
hook when it has one, otherwise by a generic central-finite-difference
evaluation of the Navier-Stokes residual — and runs mesh or time-step
refinement ladders whose errors feed the rate gates of
:mod:`repro.verification.rates`.

The two ladders the paper's verification rests on:

* :func:`poisson_spatial_ladder` — the DG Laplace/Poisson problem under
  uniform mesh refinement, expected L2 order ``k + 1``;
* :func:`ns_temporal_ladder` — the dual splitting scheme on an unsteady
  analytic flow under time-step refinement, expected order 2 (J = 2).
"""

from __future__ import annotations

import numpy as np

from ..core.dof_handler import DGDofHandler
from ..core.operators import DGLaplaceOperator, InverseMassOperator
from ..mesh.connectivity import build_connectivity
from ..mesh.generators import box, cylinder
from ..mesh.mapping import GeometryField
from ..mesh.octree import Forest
from ..ns.bc import BoundaryConditions, VelocityDirichlet
from ..ns.solver import IncompressibleNavierStokesSolver, SolverSettings
from ..solvers import HybridMultigridPreconditioner, conjugate_gradient
from ..telemetry import TRACER
from .rates import RefinementStudy

#: default finite-difference steps: first derivatives are accurate to
#: ~1e-10 at 1e-5, second derivatives to ~1e-8 at 1e-4 (truncation and
#: round-off balanced) — both far below any discretization error a
#: ladder resolves
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4


def _shifted(coords, j, h):
    args = list(coords)
    args[j] = coords[j] + h
    return args


def fd_negative_laplacian(fn, h: float = FD_STEP_SECOND):
    """``f = -lap u`` of a scalar field ``u(x, y, z)`` by central
    second differences — the Poisson manufactured right-hand side."""

    def rhs(x, y, z):
        coords = (np.asarray(x, float), np.asarray(y, float), np.asarray(z, float))
        u0 = fn(*coords)
        lap = np.zeros_like(u0)
        for j in range(3):
            lap = lap + (
                fn(*_shifted(coords, j, +h)) - 2.0 * u0 + fn(*_shifted(coords, j, -h))
            )
        return -lap / h**2

    return rhs


def navier_stokes_body_force(
    solution,
    nu: float,
    h_first: float = FD_STEP_FIRST,
    h_second: float = FD_STEP_SECOND,
):
    """Finite-difference Navier-Stokes residual of a manufactured field:

    ``f = du/dt + (u . grad) u - nu lap u + grad p``

    for ``solution.velocity(x, y, z, t) -> (3, ...)`` and (optional)
    ``solution.pressure(x, y, z, t)``.  For a field that already solves
    the equations (e.g. Beltrami flow) this returns numerical noise at
    the finite-difference truncation level, so it is always safe to use
    as the fallback when no analytic ``body_force`` hook exists.
    """
    vel = solution.velocity
    pres = getattr(solution, "pressure", None)

    def force(x, y, z, t):
        coords = (np.asarray(x, float), np.asarray(y, float), np.asarray(z, float))
        u0 = np.asarray(vel(*coords, t))
        f = (
            np.asarray(vel(*coords, t + h_first)) - np.asarray(vel(*coords, t - h_first))
        ) / (2.0 * h_first)
        lap = np.zeros_like(u0)
        for j in range(3):
            dj = (
                np.asarray(vel(*_shifted(coords, j, +h_first), t))
                - np.asarray(vel(*_shifted(coords, j, -h_first), t))
            ) / (2.0 * h_first)
            f = f + u0[j] * dj  # convective term u_j d_j u_i
            lap = lap + (
                np.asarray(vel(*_shifted(coords, j, +h_second), t))
                - 2.0 * u0
                + np.asarray(vel(*_shifted(coords, j, -h_second), t))
            ) / h_second**2
        f = f - nu * lap
        if pres is not None:
            for j in range(3):
                f[j] = f[j] + (
                    np.asarray(pres(*_shifted(coords, j, +h_first), t))
                    - np.asarray(pres(*_shifted(coords, j, -h_first), t))
                ) / (2.0 * h_first)
        return f

    return force


def resolve_body_force(solution, nu: float, body_force="auto"):
    """The MMS forcing policy: ``"auto"`` prefers the solution's own
    ``body_force`` hook and falls back to the finite-difference residual;
    ``"none"`` forces an unforced run (for fields known to solve the
    homogeneous equations exactly); a callable passes through."""
    if callable(body_force):
        return body_force
    if body_force == "none":
        return None
    if body_force != "auto":
        raise ValueError(f"unknown body_force policy {body_force!r}")
    hook = getattr(solution, "body_force", None)
    if hook is not None:
        return hook
    return navier_stokes_body_force(solution, nu)


# ----------------------------------------------------------------------
def _default_poisson_exact(x, y, z):
    return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)


def _l2_error_scalar(dof, geo, u_flat, exact) -> float:
    cm = geo.cell_metrics()
    uq = geo.kernel.values(dof.lanes(u_flat))
    eq = exact(*cm.points)
    return float(np.sqrt(np.sum((uq - eq) ** 2 * cm.jxw)))


def poisson_spatial_ladder(
    degree: int = 2,
    levels=(1, 2, 3),
    exact=None,
    rhs=None,
    operator_cls=None,
    preconditioner: str = "multigrid",
    solver_tol: float = 1e-11,
    max_iter: int = 4000,
) -> RefinementStudy:
    """DG Poisson mesh-refinement ladder on the unit cube.

    ``rhs=None`` derives the source from ``exact`` by the
    finite-difference Laplacian (the MMS path); ``operator_cls`` lets a
    test inject a deliberately broken operator and watch the rate gate
    catch it.  Expected L2 order: ``degree + 1``.
    """
    exact = exact or _default_poisson_exact
    rhs = rhs or fd_negative_laplacian(exact)
    operator_cls = operator_cls or DGLaplaceOperator
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    sizes, errors, n_dofs = [], [], []
    with TRACER.span(f"verify.poisson_k{degree}"):
        for level in levels:
            forest = Forest(mesh).refine_all(level)
            geo = GeometryField(forest, degree)
            conn = build_connectivity(forest)
            dof = DGDofHandler(forest, degree)
            op = operator_cls(dof, geo, conn, dirichlet_ids=(1,))
            b = op.assemble_rhs(f=rhs, dirichlet=lambda x, y, z: exact(x, y, z))
            if preconditioner == "multigrid":
                pre = HybridMultigridPreconditioner(op)
            elif preconditioner == "inverse_mass":
                pre = InverseMassOperator(dof, geo)
            else:
                raise ValueError(f"unknown preconditioner {preconditioner!r}")
            res = conjugate_gradient(
                op, b, pre, tol=solver_tol, max_iter=max_iter, name="verify"
            )
            sizes.append(0.5**level)
            errors.append(_l2_error_scalar(dof, geo, res.x, exact))
            n_dofs.append(dof.n_dofs)
    return RefinementStudy(
        name=f"poisson_dg_k{degree}",
        parameter="h",
        sizes=sizes,
        errors=errors,
        expected_rate=degree + 1,
        meta={"degree": degree, "levels": list(levels), "n_dofs": n_dofs},
    )


# ----------------------------------------------------------------------
def ns_temporal_ladder(
    solution,
    nu: float,
    degree: int = 4,
    level: int = 1,
    t_end: float = 0.4,
    steps=(16, 32, 64),
    solver_tol: float = 1e-10,
    body_force="auto",
    name: str | None = None,
    settings: SolverSettings | None = None,
) -> RefinementStudy:
    """Time-step refinement ladder of the dual splitting scheme on the
    unit cube with exact-solution Dirichlet boundaries.

    Expected order 2 for the J=2 scheme.  At a fixed mesh the measured
    error is ``O(dt^2) + O(h^s) + O(dt h^s)`` — the mixed term enters
    through the discrete vorticity in the rotational pressure boundary
    condition — so a clean fit needs the temporal signal to dominate
    both floors.  That constrains the *flow*, not just the ladder: it
    must be strongly time-dependent (large ``nu d^2`` decay or pulsatile
    forcing) yet have a low enough velocity scale that the coarsest dt
    respects the explicit-convection CFL bound
    ``dt <= 0.4 / (k^1.5 max|u|)``.  :func:`beltrami_temporal_gate` is
    the calibrated configuration; see TESTING.md before changing it.
    """
    force = resolve_body_force(solution, nu, body_force)
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(level)
    bcs = BoundaryConditions(
        {1: VelocityDirichlet(lambda x, y, z, t: solution.velocity(x, y, z, t))}
    )
    settings = settings or SolverSettings(solver_tolerance=solver_tol)
    sizes, errors = [], []
    max_cfl = 0.0
    label = name or f"{type(solution).__name__.lower()}_dt"
    with TRACER.span(f"verify.{label}"):
        for n in steps:
            solver = IncompressibleNavierStokesSolver(
                forest, degree, nu, bcs, settings, body_force=force
            )
            solver.initialize(solution.velocity)
            dt = t_end / n
            for _ in range(n):
                st = solver.step(dt)
                max_cfl = max(max_cfl, st.cfl)
            sizes.append(dt)
            errors.append(
                solver.velocity_error_l2(solution.velocity, solver.scheme.t)
            )
    return RefinementStudy(
        name=label,
        parameter="dt",
        sizes=sizes,
        errors=errors,
        expected_rate=2.0,
        # max_cfl well above the adaptive controller's 0.4 target means
        # the coarsest rung risks the explicit-convection stability
        # limit — check it before trusting a noisy ladder
        meta={"degree": degree, "level": level, "t_end": t_end,
              "steps": list(steps), "max_cfl": max_cfl},
    )


def beltrami_temporal_gate(steps=(16, 32, 64)) -> RefinementStudy:
    """The calibrated Beltrami dt-refinement gate (convergence tier).

    A small-amplitude (``a = pi/8``, so ``max|u| ~ 0.55`` and the CFL
    bound allows ``dt = 0.025`` at degree 4) but rapidly decaying
    (``nu = 1``, decay rate ``nu d^2 ~ 2.5``) Beltrami flow: the dt^2
    error is orders of magnitude above the spatial floor across the
    whole ladder.  Measured pairwise rates ~[2.9, 2.5], approaching 2
    from above (the coarser points carry a startup transient from the
    lower-order BDF bootstrap, which only helps the one-sided gate).
    """
    from ..ns.analytic import BeltramiFlow

    return ns_temporal_ladder(
        BeltramiFlow(nu=1.0, a=np.pi / 8, d=np.pi / 2),
        nu=1.0,
        degree=4,
        level=1,
        t_end=0.4,
        steps=steps,
        solver_tol=1e-10,
        name="beltrami_dt_gate",
    )


def womersley_temporal_ladder(
    flow=None,
    degree: int = 3,
    n_axial: int = 2,
    t_end: float = 0.25,
    steps=(3, 6, 12),
    solver_tol: float = 1e-8,
) -> RefinementStudy:
    """Temporal ladder for the pulsatile Womersley pipe flow — the
    lung-relevant oscillatory case — on the curved cylinder mesh.

    All boundaries carry exact velocity Dirichlet data (pure-Neumann
    pressure, handled by the scheme's mean-free projection); the
    oscillating pressure gradient enters as the analytic body force.
    """
    from ..ns.analytic import WomersleyPipeFlow

    if flow is None:
        flow = WomersleyPipeFlow(
            radius=0.5, nu=0.05, omega=2.0 * np.pi, amplitude=1.0
        )
    mesh = cylinder(
        radius=flow.radius, length=2.0 * flow.radius, n_axial=n_axial,
        inlet_id=1, outlet_id=2,
    )
    forest = Forest(mesh)
    g = lambda x, y, z, t: flow.velocity(x, y, z, t)
    bcs = BoundaryConditions({bid: VelocityDirichlet(g) for bid in (0, 1, 2)})
    # pure-Neumann pressure: the conforming auxiliary space of the
    # hybrid multigrid assumes a Dirichlet-pinned operator, so use the
    # Jacobi-preconditioned pressure solve
    settings = SolverSettings(solver_tolerance=solver_tol, use_multigrid=False)
    sizes, errors = [], []
    with TRACER.span("verify.womersley_dt"):
        for n in steps:
            solver = IncompressibleNavierStokesSolver(
                forest, degree, flow.nu, bcs, settings,
                body_force=flow.body_force,
            )
            solver.initialize(flow.velocity)
            dt = t_end / n
            for _ in range(n):
                solver.step(dt)
            sizes.append(dt)
            errors.append(solver.velocity_error_l2(flow.velocity, solver.scheme.t))
    return RefinementStudy(
        name="womersley_dt",
        parameter="dt",
        sizes=sizes,
        errors=errors,
        expected_rate=2.0,
        meta={"degree": degree, "alpha": flow.alpha, "t_end": t_end,
              "steps": list(steps)},
    )
