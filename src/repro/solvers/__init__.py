"""Linear solvers: preconditioned CG, Chebyshev/Jacobi smoothing,
smoothed-aggregation AMG, multigrid transfers, and the hybrid
geometric-polynomial-algebraic multigrid preconditioner."""

from .krylov import SolverResult, conjugate_gradient, lanczos_max_eigenvalue
from .jacobi import JacobiPreconditioner
from .chebyshev import ChebyshevSmoother
from .amg import SmoothedAggregationAMG
from .assemble import assemble_cg_laplace
from .transfer import Transfer, dg_from_cg, h_transfer, p_transfer
from .multigrid import HybridMultigridPreconditioner

__all__ = [
    "SolverResult",
    "conjugate_gradient",
    "lanczos_max_eigenvalue",
    "JacobiPreconditioner",
    "ChebyshevSmoother",
    "SmoothedAggregationAMG",
    "assemble_cg_laplace",
    "Transfer",
    "dg_from_cg",
    "h_transfer",
    "p_transfer",
    "HybridMultigridPreconditioner",
]
