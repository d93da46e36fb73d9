"""Golden-file regression snapshots.

Small, fast, deterministic cases — Poisson L2 errors on two meshes and a
short Beltrami run's error/divergence/iteration statistics — whose
values are committed to the repository with per-metric tolerances.  A
behavioral change anywhere in the operator or splitting stack moves one
of these numbers; an *intentional* change regenerates the file with
``repro verify --update-golden`` (see TESTING.md).

Each metric entry carries its own ``rtol``/``atol`` so noisy quantities
(iteration counts near a tolerance threshold) get slack while sharp
ones (discretization errors) stay tight.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_SCHEMA = "repro-golden/1"


def _fingerprint(y) -> list[float]:
    """``[|y|_2, |y|_inf, r.y]`` with a fixed seeded probe ``r``: two
    norms plus one sign- and position-sensitive functional."""
    y = np.asarray(y, dtype=np.float64).ravel()
    r = np.random.default_rng(1234).standard_normal(y.size)
    return [float(np.linalg.norm(y)), float(np.abs(y).max()), float(r @ y)]


def _committed(u, dof, inverse: bool = False):
    """A DG vector of ``dof`` from its lane order ``(*lead, [c,] n³, N)``
    to the cell-major ``(*lead, N, [c,] n³)`` (``inverse``: back) — the
    fingerprinted vectors were drawn and taken cell-major, velocities
    interleaved per cell, the layout of the implementation that produced
    them, so they are kept that way instead of being regenerated."""
    c, m, N = dof.n_components, dof.n1 ** 3, dof.n_cells
    lead = u.shape[:-1]
    if inverse:
        return np.moveaxis(u.reshape(lead + (N, c, m)), -3, -1).reshape(u.shape)
    return np.moveaxis(u.reshape(lead + (c, m, N)), -1, -3).reshape(u.shape)


def _operator_fingerprints() -> dict:
    """Fingerprints of one application of each operator family on the
    meshes where index plans can go wrong: a box forest with hanging
    faces and the tube junction with rotated faces.

    The committed values were produced by the unplanned reference
    execution (``np.add.at`` scatters, per-call ``optimize=True`` einsum
    searches, fresh temporaries) at the last commit that carried it, so
    they pin the planned hot path to a second implementation of the same
    arithmetic; regenerate them only for an intended change of that
    arithmetic.  The flow-operator entries (:func:`_flow_operator_outputs`)
    were likewise produced by the per-batch face path before the planned
    face loop replaced it.
    """
    from ..core.dof_handler import CGDofHandler, DGDofHandler
    from ..core.operators import (
        CGLaplaceOperator,
        DGLaplaceOperator,
        MassOperator,
        VectorDGLaplace,
    )
    from ..mesh.connectivity import build_connectivity
    from ..mesh.generators import bifurcation, box
    from ..mesh.mapping import GeometryField
    from ..mesh.octree import Forest
    from ..solvers.multigrid import operator_to_dtype

    hanging = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
    hanging = hanging.refine([hanging.leaves[0]]).balance()
    junction = Forest(bifurcation())

    def dg_laplace(forest, degree):
        return DGLaplaceOperator(
            DGDofHandler(forest, degree), GeometryField(forest, degree),
            build_connectivity(forest), dirichlet_ids=(1,),
        )

    def vmult(op, seed, dtype=np.float64):
        x = np.random.default_rng(seed).standard_normal(op.n_dofs).astype(dtype, copy=False)
        if isinstance(op.dof, CGDofHandler):
            return op.vmult(x)
        return _committed(op.vmult(_committed(x, op.dof, inverse=True)), op.dof)

    out: dict = {}
    for degree in (1, 2, 3):
        out[f"vmult_dg_laplace_hanging_k{degree}"] = vmult(dg_laplace(hanging, degree), 0)
    for degree in (1, 2):
        out[f"vmult_dg_laplace_bifurcation_k{degree}"] = vmult(dg_laplace(junction, degree), 0)
    lap = dg_laplace(hanging, 2)
    out["vmult_cg_laplace_hanging_k2"] = vmult(
        CGLaplaceOperator(
            CGDofHandler(hanging, 2, build_connectivity(hanging), dirichlet_ids=(1,)),
            GeometryField(hanging, 2),
        ), 0)
    out["vmult_mass_bifurcation_k2"] = vmult(
        MassOperator(DGDofHandler(junction, 2), GeometryField(junction, 2)), 0)
    vec = VectorDGLaplace(lap, DGDofHandler(hanging, 2, n_components=3))
    x = np.random.default_rng(8).standard_normal(vec.n_dofs)
    out["vmult_vector_laplace_hanging_k2"] = _committed(
        vec.vmult(_committed(x, vec.dof, inverse=True)), vec.dof)
    out["assemble_rhs_dg_laplace_hanging_k2"] = _committed(lap.assemble_rhs(
        f=lambda x, y, z: x * y + z, dirichlet=lambda x, y, z: x - z), lap.dof)
    for name, forest in (("hanging", hanging), ("bifurcation", junction)):
        out.update(_flow_operator_outputs(name, forest))
    metrics = {
        name: {"value": _fingerprint(y), "rtol": 1e-10} for name, y in out.items()
    }
    metrics["vmult_dg_laplace_hanging_k2_float32"] = {
        "value": _fingerprint(vmult(operator_to_dtype(lap, np.float32), 7, np.float32)),
        "rtol": 2e-5,
    }
    return metrics


def _flow_operator_outputs(name: str, forest) -> dict:
    """One application of every face-carrying flow operator and of the
    solver's boundary right-hand sides (k=2) on ``forest``: inhomogeneous
    velocity data on id 1, pressure data on the other given id (an
    outflow for the convective term), no-slip walls elsewhere."""
    from ..ns import (BoundaryConditions, IncompressibleNavierStokesSolver, PressureDirichlet,
                      SolverSettings, VelocityDirichlet)
    from ..timeint import bdf_coefficients

    def g(x, y, z, t):
        return np.stack([y * z + t, np.sin(x), x * y - z])

    def gp(x, y, z, t):
        return np.sin(x) * y + z + t

    outflow = 0 if name == "hanging" else 2
    solver = IncompressibleNavierStokesSolver(
        forest, 2, 0.1,
        BoundaryConditions({1: VelocityDirichlet(g), outflow: PressureDirichlet(gp)}),
        SolverSettings(use_multigrid=False),
    )
    rng = np.random.default_rng(21)
    dof_u, dof_p = solver.dof_u, solver.dof_p
    u0, u1, w = _committed(rng.standard_normal((3, dof_u.n_dofs)), dof_u, inverse=True)
    p = _committed(rng.standard_normal(dof_p.n_dofs), dof_p, inverse=True)
    solver.penalty.update_parameters(w)
    coeffs = bdf_coefficients(2, [0.01, 0.02])
    out = {
        f"apply_convective_{name}_k2": solver.convective.apply(u0, 0.3),
        f"apply_divergence_{name}_k2": solver.divergence.apply(u0, 0.3),
        f"apply_divergence_interior_trace_{name}_k2": solver.divergence.apply(
            u0, 0.3, interior_trace_everywhere=True),
        f"apply_gradient_{name}_k2": solver.gradient.apply(p, 0.3),
        f"vmult_penalty_{name}_k2": solver.penalty.vmult(u1),
        f"pressure_neumann_rhs_{name}_k2": solver._pressure_neumann_rhs(
            0.3, [u0, u1], [0.29, 0.27], coeffs, 0.01),
        f"viscous_boundary_rhs_{name}_k2": solver._viscous_boundary_rhs(0.3),
    }
    return {key: _committed(y, dof_u if y.size == dof_u.n_dofs else dof_p)
            for key, y in out.items()}


def compute_golden_metrics() -> dict:
    """Run the committed small cases and return ``name -> metric`` with
    per-metric comparison tolerances."""
    from ..mesh.generators import box
    from ..mesh.octree import Forest
    from ..ns import (
        BeltramiFlow,
        BoundaryConditions,
        IncompressibleNavierStokesSolver,
        SolverSettings,
        VelocityDirichlet,
    )
    from .mms import poisson_spatial_ladder

    metrics: dict = _operator_fingerprints()
    study = poisson_spatial_ladder(degree=2, levels=(1, 2))
    for level, err in zip(study.meta["levels"], study.errors):
        metrics[f"poisson_k2_l{level}_error_l2"] = {"value": err, "rtol": 1e-4}

    nu = 0.05
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(1)
    flow = BeltramiFlow(nu)
    bcs = BoundaryConditions(
        {1: VelocityDirichlet(lambda x, y, z, t: flow.velocity(x, y, z, t))}
    )
    solver = IncompressibleNavierStokesSolver(
        forest, 2, nu, bcs, SolverSettings(solver_tolerance=1e-8)
    )
    solver.initialize(flow.velocity)
    stats = [solver.step(0.01) for _ in range(5)]
    metrics["beltrami_k2_error_l2"] = {
        "value": solver.velocity_error_l2(flow.velocity, solver.scheme.t),
        "rtol": 1e-3,
    }
    metrics["beltrami_k2_max_divergence"] = {
        "value": solver.max_divergence(),
        "rtol": 5e-2,  # controlled, not driven, by the penalty step
    }
    metrics["beltrami_k2_pressure_iterations"] = {
        "value": [s.pressure_iterations for s in stats],
        "atol": 2,
    }
    metrics["beltrami_k2_viscous_iterations"] = {
        "value": [s.viscous_iterations for s in stats],
        "atol": 2,
    }
    metrics["beltrami_k2_penalty_iterations"] = {
        "value": [s.penalty_iterations for s in stats],
        "atol": 2,
    }
    return metrics


def _mismatch(name: str, got, want, rtol: float, atol: float) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != golden {want.shape}"
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        return (
            f"{name}: {np.array2string(got, precision=8)} deviates from "
            f"golden {np.array2string(want, precision=8)} "
            f"(rtol={rtol:g}, atol={atol:g})"
        )
    return None


def compare_golden(computed: dict, golden_doc: dict) -> list[str]:
    """Compare freshly computed metrics against a loaded golden document;
    returns a list of human-readable mismatches (empty = pass)."""
    if golden_doc.get("schema") != GOLDEN_SCHEMA:
        return [
            f"unsupported golden schema {golden_doc.get('schema')!r} "
            f"(expected {GOLDEN_SCHEMA!r})"
        ]
    golden = golden_doc.get("metrics", {})
    problems = []
    for name in sorted(set(golden) | set(computed)):
        if name not in computed:
            problems.append(f"{name}: in golden file but not computed")
            continue
        if name not in golden:
            problems.append(
                f"{name}: computed but missing from the golden file "
                "(regenerate with --update-golden)"
            )
            continue
        entry = golden[name]
        p = _mismatch(
            name,
            computed[name]["value"],
            entry["value"],
            rtol=float(entry.get("rtol", 0.0)),
            atol=float(entry.get("atol", 0.0)),
        )
        if p:
            problems.append(p)
    return problems


def load_golden(path: str | Path) -> dict:
    with Path(path).open() as f:
        return json.load(f)


def write_golden(path: str | Path, metrics: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": GOLDEN_SCHEMA, "metrics": metrics}
    with path.open("w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
