"""Distributed runtime: Morton partitioning with real ghost-face
censuses, machine models of the paper's platforms, the calibrated
strong/weak-scaling performance model, and the one ghost-exchange
implementation with an in-process and a shared-memory multi-process
executor (:mod:`repro.parallel.runtime`)."""

from .machine import FUGAKU_A64FX, LOCAL_PYTHON, SUMMIT_V100, SUPERMUC_NG, MachineModel
from .partition import PartitionStats, partition_forest, partition_stats
from .perfmodel import (
    SP_SMOOTHER_SPEEDUP,
    THROUGHPUT_VS_DEGREE,
    MatvecScalingModel,
    MultigridLevelSpec,
    MultigridSolveModel,
    multigrid_levels_from_preconditioner,
)
from .runtime import (
    CRASH_EXIT_CODE,
    DistributedOperator,
    DistributedSolverContext,
    ExchangeCensus,
    InProcessGhostRuntime,
    PartitionPlan,
    RankLocalOperator,
    WorkerCrash,
    WorkerPool,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "DistributedOperator",
    "DistributedSolverContext",
    "ExchangeCensus",
    "InProcessGhostRuntime",
    "PartitionPlan",
    "RankLocalOperator",
    "WorkerCrash",
    "WorkerPool",
    "MachineModel",
    "SUPERMUC_NG",
    "SUMMIT_V100",
    "FUGAKU_A64FX",
    "LOCAL_PYTHON",
    "PartitionStats",
    "partition_forest",
    "partition_stats",
    "MatvecScalingModel",
    "MultigridLevelSpec",
    "MultigridSolveModel",
    "multigrid_levels_from_preconditioner",
    "THROUGHPUT_VS_DEGREE",
    "SP_SMOOTHER_SPEEDUP",
]
