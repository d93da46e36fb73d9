"""Verification subsystem: manufactured solutions, convergence-rate
gates, operator invariants, and golden-file regression snapshots.

The correctness-tooling layer next to the perf (execution plans) and
robustness (fault-tolerant stepping) layers: it turns the paper's
validation methodology — spatial order ``k + 1`` for the DG
discretization, temporal order 2 for the J=2 dual splitting — into
executable gates.  ``repro verify`` drives the refinement ladders from
the command line; the ``convergence``-marked tests drive them in CI.
"""

from .golden import (
    GOLDEN_SCHEMA,
    compare_golden,
    compute_golden_metrics,
    load_golden,
    write_golden,
)
from .invariants import (
    InvariantViolation,
    check_adjoint,
    check_nullspace,
    check_positive_semidefinite,
    check_symmetry,
    make_rng,
    random_curved_forest,
)
from .mms import (
    beltrami_temporal_gate,
    fd_negative_laplacian,
    navier_stokes_body_force,
    ns_temporal_ladder,
    poisson_spatial_ladder,
    resolve_body_force,
    womersley_temporal_ladder,
)
from .rates import (
    ConvergenceFailure,
    RefinementStudy,
    assert_rate,
    fit_rate,
    pairwise_rates,
)
from .report import RATE_SCHEMA, rate_table_doc, render_rate_table, write_rate_log

__all__ = [
    "ConvergenceFailure",
    "GOLDEN_SCHEMA",
    "InvariantViolation",
    "RATE_SCHEMA",
    "RefinementStudy",
    "assert_rate",
    "beltrami_temporal_gate",
    "check_adjoint",
    "check_nullspace",
    "check_positive_semidefinite",
    "check_symmetry",
    "compare_golden",
    "compute_golden_metrics",
    "fd_negative_laplacian",
    "fit_rate",
    "load_golden",
    "make_rng",
    "navier_stokes_body_force",
    "ns_temporal_ladder",
    "pairwise_rates",
    "poisson_spatial_ladder",
    "random_curved_forest",
    "rate_table_doc",
    "render_rate_table",
    "resolve_body_force",
    "womersley_temporal_ladder",
    "write_golden",
    "write_rate_log",
]
