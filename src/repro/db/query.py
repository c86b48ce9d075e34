"""Querying awari endgame databases: best moves and optimal play.

This is what the databases are *for*: given a position, report its exact
value and the move(s) achieving it.  :func:`optimal_line` replays a
database-perfect game, used both as an example application and as an
end-to-end certificate in the tests (the realized capture difference of
a replayed line must equal the stored value).

``dbs`` throughout is any *value source*: a resident
:class:`~repro.db.store.DatabaseSet`, a
:class:`~repro.serve.service.ProbeService` over a paged store, or a
:class:`~repro.aserve.client.BinaryProbeClient` talking to a remote server —
anything with ``__contains__`` plus either array indexing or the
``probe_many`` protocol.  Sources with ``probe_many`` get all successor
lookups of one position as a single batch (one network round trip, one
cache-locality-sorted sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..games.awari_db import AwariCaptureGame
from .successors import resolve_successors

__all__ = ["MoveEvaluation", "evaluate_moves", "best_moves", "optimal_line"]


def _gather_values(dbs, positions: list) -> list[int]:
    """Values for ``[(db_id, index), ...]`` from any value source."""
    probe_many = getattr(dbs, "probe_many", None)
    if probe_many is not None:
        return [int(v) for v in probe_many(positions)]
    return [int(dbs[db_id][index]) for db_id, index in positions]


@dataclass
class MoveEvaluation:
    """One legal move and the exact value it achieves for the mover.

    ``successor_depth`` is the successor's distance (see
    :class:`~repro.db.store.DatabaseSet`), ``None`` when depths were not
    collected; capturing moves report 0 (the capture itself is progress).
    """

    pit: int
    captures: int
    value: int
    successor: np.ndarray
    successor_depth: int | None = None


def evaluate_moves(
    game: AwariCaptureGame, dbs, board: np.ndarray
) -> list[MoveEvaluation]:
    """Exact evaluation of every legal move from ``board``.

    Requires the databases for the board's stone count and everything a
    capture can reach.
    """
    refs = resolve_successors(game, board)
    values = _gather_values(dbs, [(r.db_id, r.index) for r in refs])
    evals = []
    for ref, succ_value in zip(refs, values):
        if ref.captures > 0:
            depth = 0
        elif hasattr(dbs, "depth_of"):
            depth = dbs.depth_of(ref.db_id, ref.index)
        else:
            depth = None
        evals.append(
            MoveEvaluation(
                pit=ref.pit,
                captures=ref.captures,
                value=ref.captures - succ_value,
                successor=ref.board,
                successor_depth=depth,
            )
        )
    return evals


def best_moves(
    game: AwariCaptureGame, dbs, board: np.ndarray
) -> tuple[int, list[MoveEvaluation]]:
    """(position value, optimal moves) for ``board``.

    A terminal board returns its terminal value and an empty move list.
    """
    evals = evaluate_moves(game, dbs, board)
    board = np.asarray(board, dtype=np.int16)
    if not evals:
        mover = int(board[:6].sum())
        return 2 * mover - int(board.sum()), []
    value = max(e.value for e in evals)
    return value, [e for e in evals if e.value == value]


def optimal_line(
    game: AwariCaptureGame,
    dbs,
    board: np.ndarray,
    max_plies: int = 200,
) -> tuple[int, list[int]]:
    """Replay database-optimal play from ``board``.

    Both sides play a value-maximal move, preferring captures (which
    strictly reduce the stone count, guaranteeing progress whenever a
    capture is among the optimal moves).  Returns the realized capture
    difference from the first mover's perspective and the pit sequence.
    Lines that cycle (drawn positions) stop at ``max_plies`` with the
    captures collected so far.
    """
    board = np.asarray(board, dtype=np.int16).copy()
    diff = 0
    sign = 1
    pits: list[int] = []
    seen: set = set()
    for _ in range(max_plies):
        value, moves = best_moves(game, dbs, board)
        if not moves:
            diff += sign * value  # terminal rule: split remaining stones
            break
        # Prefer captures (guaranteed progress).  Among non-capturing
        # optimal moves, a collected depth is a *strict* progress measure
        # (see SequentialSolver.collect_depth); without one, fall back to
        # avoiding recently visited successors.
        have_depth = all(e.successor_depth is not None for e in moves)
        if have_depth:
            choice = min(
                moves, key=lambda e: (-e.captures, e.successor_depth)
            )
        else:
            choice = max(
                moves,
                key=lambda e: (
                    e.captures,
                    e.successor.tobytes() not in seen,
                ),
            )
        seen.add(board.tobytes())
        pits.append(choice.pit)
        diff += sign * choice.captures
        board = choice.successor.copy()
        sign = -sign
        if board.sum() == 0:
            break
    return diff, pits
