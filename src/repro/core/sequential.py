"""Sequential capture-difference database construction.

This is the paper's uniprocessor baseline (the "40 hours on one machine"
side of the headline result).  For each database in dependency order it
builds the move graph once and makes one kernel call that propagates
every threshold ``t = 1..n`` at once, in row ``t - 1`` of ``(n, size)``
arrays; the values are then read off those rows (see DESIGN.md for why
this decomposition is exactly classic win/loss RA run ``n`` times).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..games.base import CaptureGame
from ..obs import NULL_METRICS
from .graph import WorkCounters, build_database_graph
from .kernel import (
    RAProblem, csr_provider, seed_thresholds, solve_kernel, unmove_provider
)
from .values import (
    LOSS, WIN, check_nested_thresholds, exit_values, status_values
)

__all__ = ["DatabaseReport", "SolveReport", "SequentialSolver"]


@dataclass
class DatabaseReport:
    """Everything measured while solving one database."""

    db_id: object
    size: int
    work: WorkCounters
    thresholds: int = 0
    propagation_rounds: int = 0
    parent_notifications: int = 0
    wall_seconds: float = 0.0
    graph_memory_bytes: int = 0

    @property
    def total_ops(self) -> int:
        """Abstract operation count fed to the calibrated cost model."""
        return (
            self.work.positions_scanned
            + self.work.moves_generated
            + self.work.exit_lookups
            + self.parent_notifications
        )


@dataclass
class SolveReport:
    """Per-database reports for a full solve."""

    databases: list = field(default_factory=list)

    def by_id(self) -> Mapping:
        return {r.db_id: r for r in self.databases}

    @property
    def total_ops(self) -> int:
        return sum(r.total_ops for r in self.databases)

    @property
    def wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.databases)


class SequentialSolver:
    """Uniprocessor retrograde analysis over a :class:`CaptureGame`.

    Parameters
    ----------
    game:
        The stratified game to solve.
    predecessor_mode:
        ``"csr"`` (default) propagates through a precomputed transposed
        graph; ``"unmove"`` regenerates predecessors on the fly exactly as
        the paper's memory-constrained implementation did.  Both produce
        identical databases (asserted in tests).
    chunk:
        Scan batch size.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` (or a scoped view);
        the solver reports under the ``sequential.`` prefix.  Defaults to
        the zero-cost null registry.
    """

    def __init__(
        self,
        game: CaptureGame,
        predecessor_mode: str = "csr",
        chunk: int = 1 << 15,
        check_invariants: bool = False,
        collect_depth: bool = False,
        metrics=None,
    ):
        if predecessor_mode not in ("csr", "unmove"):
            raise ValueError(f"unknown predecessor_mode {predecessor_mode!r}")
        self.game = game
        self.predecessor_mode = predecessor_mode
        self.chunk = chunk
        self.check_invariants = check_invariants
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: When set, :meth:`solve` also returns per-database distance
        #: arrays: plies of optimal play needed to realize the value
        #: within its database (draws: -1).  A strict progress measure for
        #: optimal-line replay.
        self.collect_depth = collect_depth
        self.depths: dict = {}

    # ------------------------------------------------------------ database

    def solve_database(
        self, db_id, lower_values: Mapping
    ) -> tuple[np.ndarray, DatabaseReport]:
        """Solve one database given all its dependencies."""
        t0 = time.perf_counter()
        graph = build_database_graph(
            self.game, db_id, lower_values, chunk=self.chunk
        )
        report = DatabaseReport(
            db_id=db_id,
            size=graph.size,
            work=graph.work,
            graph_memory_bytes=graph.memory_bytes(),
        )
        bound = self.game.value_bound(db_id)
        if bound == 0:
            # Single-valued database (e.g. the empty awari board).
            values = exit_values(graph.best_exit)
            report.wall_seconds = time.perf_counter() - t0
            self._record(report)
            return values, report

        status, counts, loss_eligible = seed_thresholds(
            graph.best_exit, graph.out_degree, range(1, bound + 1)
        )
        if self.predecessor_mode == "unmove":
            predecessors = unmove_provider(self.game, db_id)
        else:
            predecessors = csr_provider(graph.reverse)
        result = solve_kernel(
            RAProblem(graph.size, status, counts, predecessors, loss_eligible),
            record_rounds=self.collect_depth,
        )
        report.thresholds = bound
        report.propagation_rounds = result.rounds
        report.parent_notifications = result.parent_notifications
        if self.check_invariants:
            check_nested_thresholds(status == WIN, status == LOSS)
        values = status_values(status)
        if self.collect_depth:
            # A position's distance comes from the row that finalized it
            # at its exact value t = |v|.
            level = np.abs(values)
            decided = np.flatnonzero(level)
            db_depth = np.full(graph.size, -1, dtype=np.int32)
            db_depth[decided] = result.depth[level[decided] - 1, decided]
            self.depths[db_id] = db_depth
        report.wall_seconds = time.perf_counter() - t0
        self._record(report)
        return values, report

    def _record(self, report: DatabaseReport) -> None:
        """Feed one database's measurements into the metrics registry."""
        m = self.metrics
        if not m.enabled:
            return
        m.inc("sequential.databases")
        m.inc("sequential.positions_scanned", report.work.positions_scanned)
        m.inc("sequential.moves_generated", report.work.moves_generated)
        m.inc("sequential.edges_internal", report.work.edges_internal)
        m.inc("sequential.exit_lookups", report.work.exit_lookups)
        m.inc("sequential.thresholds", report.thresholds)
        m.inc("sequential.propagation_rounds", report.propagation_rounds)
        m.inc("sequential.parent_notifications", report.parent_notifications)
        m.observe("sequential.db_positions", report.size)
        m.observe("sequential.graph_memory_bytes", report.graph_memory_bytes)
        m.observe_seconds("sequential.solve_database", report.wall_seconds)

    # ---------------------------------------------------------------- all

    def solve(self, target) -> tuple[dict, SolveReport]:
        """Solve every database up to ``target`` in dependency order."""
        values: dict = {}
        report = SolveReport()
        for db_id in self.game.db_sequence(target):
            vals, db_report = self.solve_database(db_id, values)
            values[db_id] = vals
            report.databases.append(db_report)
        return values, report
