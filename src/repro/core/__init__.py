"""Core matrix-free evaluation machinery: quadrature, tensor-product bases,
sum-factorization kernels, the execution plans, and the matrix-free PDE
operators built from them."""

from .quadrature import QuadratureRule, gauss, gauss_lobatto
from .basis import (
    LagrangeBasis1D,
    ShapeMatrices,
    shape_matrices,
    embedding_matrix,
    subinterval_matrix,
    change_of_basis_matrix,
)
from .plans import ScatterPlan, Workspace
from .sum_factorization import TensorProductKernel, apply_1d

__all__ = [
    "QuadratureRule",
    "gauss",
    "gauss_lobatto",
    "LagrangeBasis1D",
    "ShapeMatrices",
    "shape_matrices",
    "embedding_matrix",
    "subinterval_matrix",
    "change_of_basis_matrix",
    "ScatterPlan",
    "Workspace",
    "TensorProductKernel",
    "apply_1d",
]
