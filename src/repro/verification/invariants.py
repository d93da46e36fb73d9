"""Property-based operator invariants over randomized inputs.

Structural identities every matrix-free operator must satisfy regardless
of mesh or degree: symmetry of the SIP Laplace and mass forms, the
negative-transpose pairing of divergence and gradient, the constant null
space of Neumann operators, and positive semidefiniteness of the
stabilization penalties.  Each check draws its probe vectors from a
caller-supplied seeded RNG so a failure reproduces deterministically,
and raises :class:`InvariantViolation` (an ``AssertionError``) carrying
the measured defect.
"""

from __future__ import annotations

import numpy as np

from ..mesh.generators import bifurcation, box, cylinder
from ..mesh.octree import Forest


class InvariantViolation(AssertionError):
    """An operator identity failed beyond its tolerance."""


def make_rng(seed: int) -> np.random.Generator:
    """The one seeded-RNG constructor the verification suite uses."""
    return np.random.default_rng(seed)


def random_curved_forest(rng: np.random.Generator, max_kinds: int = 3) -> Forest:
    """A randomized deformed mesh: tapered smooth cylinder, bifurcation
    with a randomized opening angle, or a locally refined (hanging-node)
    box — the geometries where operator bugs actually hide."""
    kind = int(rng.integers(0, max_kinds))
    if kind == 0:
        taper = float(rng.uniform(0.6, 1.0))
        return Forest(cylinder(n_axial=2, smooth=True, taper_radius=taper))
    if kind == 1:
        angle = float(rng.uniform(40.0, 80.0))
        return Forest(bifurcation(opening_angle_deg=angle))
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1, 1: 2}))
    pick = int(rng.integers(0, forest.n_cells))
    return forest.refine([forest.leaves[pick]]).balance()


def _probe(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n)


def check_symmetry(op, rng, n_trials: int = 3, rtol: float = 1e-9) -> float:
    """``x' A y == y' A x`` for random probes; returns the worst
    relative defect."""
    worst = 0.0
    for _ in range(n_trials):
        x = _probe(rng, op.n_dofs)
        y = _probe(rng, op.n_dofs)
        a = x @ op.vmult(y)
        b = y @ op.vmult(x)
        scale = max(abs(a), abs(b), 1e-30)
        worst = max(worst, abs(a - b) / scale)
    if worst > rtol:
        raise InvariantViolation(
            f"{type(op).__name__}: symmetry defect {worst:.3e} > {rtol:.1e}"
        )
    return worst


def check_adjoint(
    apply_a, apply_b, n_a: int, n_b: int, rng,
    sign: float = -1.0, n_trials: int = 3, rtol: float = 1e-9,
    label: str = "adjoint",
) -> float:
    """``y' A x == sign * x' B y`` with ``A: R^n_a -> R^n_b`` and
    ``B: R^n_b -> R^n_a`` — e.g. the divergence being the negative
    transpose of the gradient under homogeneous data."""
    worst = 0.0
    for _ in range(n_trials):
        x = _probe(rng, n_a)
        y = _probe(rng, n_b)
        a = y @ apply_a(x)
        b = sign * (x @ apply_b(y))
        scale = max(abs(a), abs(b), 1e-30)
        worst = max(worst, abs(a - b) / scale)
    if worst > rtol:
        raise InvariantViolation(
            f"{label}: adjoint defect {worst:.3e} > {rtol:.1e}"
        )
    return worst


def check_nullspace(op, vector: np.ndarray, atol: float = 1e-9) -> float:
    """``A v ~ 0`` relative to the operator scale on a random probe
    (e.g. the constant mode of a pure-Neumann Laplacian)."""
    defect = float(np.abs(op.vmult(vector)).max())
    scale = max(float(np.abs(vector).max()), 1e-30)
    if defect > atol * scale:
        raise InvariantViolation(
            f"{type(op).__name__}: null-space defect {defect:.3e} > "
            f"{atol:.1e} * {scale:.3e}"
        )
    return defect


def check_positive_semidefinite(
    op, rng, n_trials: int = 4, tol: float = 1e-10
) -> float:
    """``x' A x >= 0`` for random probes (penalty/stabilization forms);
    returns the most negative normalized Rayleigh quotient seen."""
    worst = 0.0
    for _ in range(n_trials):
        x = _probe(rng, op.n_dofs)
        q = x @ op.vmult(x)
        norm = x @ x
        worst = min(worst, q / norm)
    if worst < -tol:
        raise InvariantViolation(
            f"{type(op).__name__}: negative Rayleigh quotient {worst:.3e}"
        )
    return worst
