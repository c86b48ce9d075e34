"""The retrograde-analysis propagation kernel.

One kernel serves every solver in the repository: the capture-difference
threshold runs (awari) and the classic win/draw/loss runs (nim, loopy
graphs) differ only in how the initial labels are produced.  The kernel
computes the least fixpoint of

* a position becomes **WIN** when one of its moves reaches a LOSS
  position (or its initial label says so, e.g. a sufficient exit);
* a position becomes **LOSS** when *every* internal move reaches a WIN
  position and no exit saves it.

Propagation is *level-synchronous*: each round finalizes a frontier and
notifies all predecessors in one vectorized batch.  The round at which a
position finalizes is recorded — for win/draw/loss games it equals the
distance-to-win/loss in plies, and the parallel solver reuses the same
round structure for its message traffic.

Predecessors are produced by a pluggable provider so the same kernel runs
from a precomputed transposed graph (fast) or from on-the-fly unmove
generation (the paper's memory-lean formulation); the two are
cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .graph import CSR, DatabaseGraph
from .values import LOSS, UNKNOWN, WIN

__all__ = [
    "RAProblem",
    "RAResult",
    "solve_kernel",
    "sort_runs",
    "threshold_init",
    "csr_provider",
    "unmove_provider",
]

#: A predecessor provider maps finalized positions to (child_row, parent)
#: pairs, with one pair per move (parallel edges included).
PredecessorProvider = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass
class RAProblem:
    """One least-fixpoint RA run over ``size`` positions.

    ``status``/``counts`` are consumed (mutated) by the solver; build a
    fresh problem per run.
    """

    size: int
    status: np.ndarray  # uint8, pre-seeded with initial WIN/LOSS labels
    counts: np.ndarray  # int32, internal out-degree of each position
    predecessors: PredecessorProvider
    loss_eligible: np.ndarray  # bool: may become LOSS when counter hits 0


@dataclass
class RAResult:
    """Labels and statistics of a kernel run."""

    status: np.ndarray
    depth: np.ndarray  # int32 round of finalization, -1 for draws
    rounds: int
    finalized: int
    parent_notifications: int  # == update messages in the distributed run
    round_sizes: list = field(default_factory=list)


def threshold_init(graph: DatabaseGraph, t: int) -> RAProblem:
    """Initial labels for threshold ``t`` of a capture database.

    WIN: an exit already achieves ``>= t``.  LOSS: no internal move and
    every exit is ``<= -t`` (positions without moves carry the terminal
    value as their exit).  Positions whose counter may reach zero later
    become LOSS only if their best exit is also ``<= -t``.
    """
    if t < 1:
        raise ValueError(f"threshold must be >= 1, got {t}")
    status = np.zeros(graph.size, dtype=np.uint8)
    be = graph.best_exit.astype(np.int32)
    win0 = be >= t
    loss_eligible = be <= -t  # includes NO_EXIT (very negative): no escape
    loss0 = loss_eligible & (graph.out_degree == 0) & ~win0
    status[win0] = WIN
    status[loss0] = LOSS
    return RAProblem(
        size=graph.size,
        status=status,
        counts=graph.out_degree.astype(np.int32).copy(),
        predecessors=csr_provider(graph.reverse),
        loss_eligible=loss_eligible,
    )


def csr_provider(reverse: CSR) -> PredecessorProvider:
    """Predecessors from a precomputed transposed adjacency."""

    def provider(idx: np.ndarray):
        return reverse.neighbors_of(idx)

    return provider


def unmove_provider(game, db_id) -> PredecessorProvider:
    """Predecessors via on-the-fly unmove generation (paper-faithful)."""

    def provider(idx: np.ndarray):
        return game.predecessors_internal(db_id, idx)

    return provider


def sort_runs(values: np.ndarray):
    """Sort ``values`` in place; return its distinct values and run lengths."""
    values.sort()
    is_bound = np.empty(values.shape[0] + 1, dtype=bool)
    is_bound[0] = is_bound[-1] = True
    np.not_equal(values[1:], values[:-1], out=is_bound[1:-1])
    bounds = is_bound.nonzero()[0]
    return values[bounds[:-1]], bounds[1:] - bounds[:-1]


def solve_kernel(problem: RAProblem, record_rounds: bool = False) -> RAResult:
    """Run retrograde propagation to its least fixpoint.

    Rounds alternate gather/scatter over the frontier; every update is
    purely array-wise.  Positions still UNKNOWN at the end are the draws
    of this run (they sit on cycles neither player can profitably leave).
    """
    status = problem.status
    counts = problem.counts
    depth = np.full(problem.size, -1, dtype=np.int32)
    # stamp[p] = where p was last seen in the current round's parent list.
    stamp = np.empty(problem.size, dtype=np.int64)
    frontier = np.flatnonzero(status != UNKNOWN)
    depth[frontier] = 0
    finalized = int(frontier.shape[0])
    notifications = 0
    rounds = 0
    round_sizes = [finalized] if record_rounds else []

    while frontier.size:
        rounds += 1
        child_row, parents = problem.predecessors(frontier)
        notifications += int(parents.shape[0])
        if parents.size == 0:
            break
        loss_children = (status[frontier] == LOSS)[child_row]

        # Moves into LOSS children let the parent win.  A parent notified
        # twice keeps only the occurrence whose position its stamp holds.
        new_win = parents[loss_children]
        new_win = new_win[status[new_win] == UNKNOWN]
        seen_at = np.arange(new_win.shape[0])
        stamp[new_win] = seen_at
        new_win = new_win[stamp[new_win] == seen_at]
        status[new_win] = WIN

        # Every other child is a WIN and burns one escape option of its
        # parent: sorted, each parent is one run as long as its decrement.
        zeroed, decrements = sort_runs(parents[~loss_children])
        counts[zeroed] -= decrements
        new_loss = zeroed[
            (counts[zeroed] == 0)
            & (status[zeroed] == UNKNOWN)
            & problem.loss_eligible[zeroed]
        ]
        status[new_loss] = LOSS

        frontier = np.concatenate([new_win, new_loss])
        depth[frontier] = rounds
        finalized += int(frontier.shape[0])
        if record_rounds:
            round_sizes.append(int(frontier.shape[0]))

    return RAResult(
        status=status,
        depth=depth,
        rounds=rounds,
        finalized=finalized,
        parent_notifications=notifications,
        round_sizes=round_sizes,
    )
