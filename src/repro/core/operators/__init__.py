"""Matrix-free PDE operators built on the sum-factorization kernels."""

from .base import FaceLoop, MatrixFreeOperator
from .mass import InverseMassOperator, MassOperator
from .laplace import CGLaplaceOperator, DGLaplaceOperator
from .vector_laplace import HelmholtzOperator, VectorDGLaplace
from .grad_div import DivergenceOperator, GradientOperator
from .convective import ConvectiveOperator
from .penalty import DivergenceContinuityPenalty, PenaltyStepOperator

__all__ = [
    "FaceLoop",
    "MatrixFreeOperator",
    "InverseMassOperator",
    "MassOperator",
    "CGLaplaceOperator",
    "DGLaplaceOperator",
    "HelmholtzOperator",
    "VectorDGLaplace",
    "DivergenceOperator",
    "GradientOperator",
    "ConvectiveOperator",
    "DivergenceContinuityPenalty",
    "PenaltyStepOperator",
]
