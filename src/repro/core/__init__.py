"""Retrograde-analysis solvers: sequential, parallel, and test oracles."""

from .bounds import BoundsResult, BoundsSolver, solve_bounds
from .combining import UPDATE_BYTES, CombiningBuffers, CombiningStats, UpdatePacket
from .graph import CSR, DatabaseGraph, WorkCounters, build_database_graph
from .kernel import RAProblem, RAResult, solve_kernel, threshold_init
from .multiproc import MultiprocessSolver
from .oracle import oracle_capture_db, oracle_capture_solve, oracle_wdl
from .pipeline import PipelineConfig, PipelineRunner, PipelineStatus
from .parallel.driver import DatabaseRunStats, ParallelConfig, ParallelSolver
from .parallel.worker import RAWorker
from .partition import (
    BlockPartition,
    CyclicPartition,
    HashPartition,
    Partition,
    balance_report,
    make_partition,
)
from .sequential import DatabaseReport, SequentialSolver, SolveReport
from .termination import BLACK, WHITE, SafraState, Token
from .values import LOSS, UNKNOWN, WIN, assemble_values, check_nested_thresholds
from .verify import BellmanReport, check_bellman, replay_certificate
from .wdl import WDLSolution, build_wdl_graph, solve_wdl
from .wdl_adapter import WDLAsCapture, solve_wdl_parallel, values_to_status

__all__ = [
    "CombiningBuffers",
    "CombiningStats",
    "UpdatePacket",
    "UPDATE_BYTES",
    "CSR",
    "DatabaseGraph",
    "WorkCounters",
    "build_database_graph",
    "RAProblem",
    "RAResult",
    "solve_kernel",
    "threshold_init",
    "oracle_capture_db",
    "oracle_capture_solve",
    "oracle_wdl",
    "ParallelConfig",
    "ParallelSolver",
    "DatabaseRunStats",
    "RAWorker",
    "Partition",
    "BlockPartition",
    "CyclicPartition",
    "HashPartition",
    "make_partition",
    "balance_report",
    "SequentialSolver",
    "SolveReport",
    "DatabaseReport",
    "SafraState",
    "Token",
    "WHITE",
    "BLACK",
    "UNKNOWN",
    "WIN",
    "LOSS",
    "assemble_values",
    "check_nested_thresholds",
    "WDLSolution",
    "build_wdl_graph",
    "solve_wdl",
    "BoundsResult",
    "BoundsSolver",
    "solve_bounds",
    "BellmanReport",
    "check_bellman",
    "replay_certificate",
    "WDLAsCapture",
    "solve_wdl_parallel",
    "values_to_status",
    "MultiprocessSolver",
    "PipelineConfig",
    "PipelineRunner",
    "PipelineStatus",
]
