"""High-level convenience API.

These wrappers cover the common cases in a single call; power users work
with :class:`~repro.core.sequential.SequentialSolver` and
:class:`~repro.core.parallel.driver.ParallelSolver` directly.
"""

from __future__ import annotations

from .core.parallel.driver import ParallelConfig, ParallelSolver
from .core.sequential import SequentialSolver
from .core.wdl import solve_wdl
from .db.store import DatabaseSet
from .games.awari import AwariRules
from .games.awari_db import AwariCaptureGame
from .games.base import WDLGame

__all__ = ["solve_awari", "solve_wdl_game"]


def solve_awari(
    stones: int,
    procs: int = 1,
    rules: AwariRules | None = None,
    config: ParallelConfig | None = None,
    with_depth: bool = False,
    metrics=None,
):
    """Compute all awari endgame databases up to ``stones``.

    ``procs == 1`` runs the sequential solver and returns
    ``(DatabaseSet, SolveReport)``.  ``procs > 1`` runs the simulated
    cluster and returns ``(DatabaseSet, list[DatabaseRunStats])`` — the
    values are identical either way, only the measurements differ.
    ``config`` overrides everything else when given.  ``with_depth``
    additionally stores distance-to-outcome arrays (sequential path only).
    ``metrics`` is an optional :class:`~repro.obs.MetricsRegistry` the
    chosen solver reports into (see docs/OBSERVABILITY.md).
    """
    if stones < 0:
        raise ValueError("stones must be >= 0")
    game = AwariCaptureGame(rules)
    if config is None and procs <= 1:
        solver = SequentialSolver(game, collect_depth=with_depth, metrics=metrics)
        values, report = solver.solve(stones)
        depths = solver.depths if with_depth else None
        return _dbset(game, values, depths), report
    if with_depth:
        raise ValueError("with_depth requires the sequential solver (procs=1)")
    if config is None:
        config = ParallelConfig(n_procs=procs)
    values, stats = ParallelSolver(game, config, metrics=metrics).solve(stones)
    return _dbset(game, values), stats


def _dbset(game: AwariCaptureGame, values: dict, depths=None) -> DatabaseSet:
    return DatabaseSet(
        game_name=game.name,
        values=values,
        rules=game.rules.describe(),
        depths=depths,
    )


def solve_wdl_game(game: WDLGame):
    """Win/draw/loss retrograde analysis of any :class:`WDLGame`."""
    return solve_wdl(game)
