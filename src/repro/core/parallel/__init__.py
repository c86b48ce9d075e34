"""The paper's contribution: distributed RA on the simulated cluster."""

from .driver import DatabaseRunStats, ParallelConfig, ParallelSolver
from .worker import KIND_DEC, KIND_WIN, RAWorker, pack_kind

__all__ = [
    "ParallelConfig",
    "ParallelSolver",
    "DatabaseRunStats",
    "RAWorker",
    "KIND_DEC",
    "KIND_WIN",
    "pack_kind",
]
