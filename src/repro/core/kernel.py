"""The retrograde-analysis propagation kernel.

One kernel serves every solver in the repository: the capture-difference
threshold runs (awari) and the classic win/draw/loss runs (nim, loopy
graphs) differ only in how the initial labels are produced.  The kernel
computes the least fixpoint of

* a position becomes **WIN** when one of its moves reaches a LOSS
  position (or its initial label says so, e.g. a sufficient exit);
* a position becomes **LOSS** when *every* internal move reaches a WIN
  position and no exit saves it.

One call solves independent *rows* over the same positions, e.g. every
threshold of a capture database (:func:`seed_thresholds`), at flat
indices ``row * size + position``.  Propagation is *level-synchronous*:
each round finalizes a frontier and notifies all predecessors in
vectorized batches.  The round at which a position finalizes is recorded
on request — for win/draw/loss games it equals the distance-to-win/loss
in plies, and the parallel solver reuses the same round structure for
its message traffic.

The update step is one rule at two sizes: :func:`apply_updates` is
vectorised for kernel rounds of 10⁴–10⁶ notifications, and
:func:`apply_updates_scalar` applies the few updates of one simulated
step with Python ints on memoryviews of the same state.  A test pins
the two to each other.

Predecessors are produced by a pluggable provider so the same kernel runs
from a precomputed transposed graph (fast) or from on-the-fly unmove
generation (the paper's memory-lean formulation); the two are
cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .graph import CSR, DatabaseGraph
from .values import LOSS, UNKNOWN, WIN

__all__ = [
    "RAProblem",
    "RAResult",
    "apply_updates",
    "apply_updates_scalar",
    "seed_thresholds",
    "solve_kernel",
    "sort_runs",
    "threshold_init",
    "csr_provider",
    "unmove_provider",
]

#: A predecessor provider maps positions to (child_row, parent) pairs,
#: with one pair per move (parallel edges included).  It returns fresh
#: arrays, which the kernel may modify in place.
PredecessorProvider = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass
class RAProblem:
    """One least-fixpoint RA run over ``size`` positions per row.

    The arrays share one C-contiguous shape whose size is a multiple of
    ``size``.  ``status``/``counts`` are consumed (mutated) by the
    solver; build a fresh problem per run.
    """

    size: int
    status: np.ndarray  # uint8, pre-seeded with initial WIN/LOSS labels
    counts: np.ndarray  # unsigned or int32, internal out-degree per position
    predecessors: PredecessorProvider
    loss_eligible: np.ndarray  # bool: may become LOSS when counter hits 0


@dataclass
class RAResult:
    """Labels and statistics of a kernel run (sums over all rows)."""

    status: np.ndarray
    #: int32 round of finalization, -1 for draws; only with ``record_rounds``.
    depth: Optional[np.ndarray]
    rounds: int  # per row: 1 + its last round with a non-empty frontier
    finalized: int
    parent_notifications: int  # == update messages in the distributed run
    round_sizes: list = field(default_factory=list)


def seed_thresholds(best_exit, out_degree, thresholds: Sequence[int]):
    """Initial ``(status, counts, loss_eligible)`` rows, one per threshold.

    WIN: an exit already achieves ``>= t``.  LOSS: no internal move and
    every exit is ``<= -t`` (positions without moves carry the terminal
    value as their exit).  Positions whose counter may reach zero later
    become LOSS only if their best exit is also ``<= -t``.  ``counts``
    takes the smallest unsigned dtype that holds the largest out-degree.
    """
    t = np.asarray(thresholds, dtype=np.int32).reshape(-1, 1)
    win0 = best_exit >= t
    loss_eligible = best_exit <= -t  # includes NO_EXIT (very negative)
    status = np.zeros(loss_eligible.shape, dtype=np.uint8)
    status[win0] = WIN
    status[loss_eligible & (out_degree == 0)] = LOSS
    top = int(out_degree.max(initial=0))
    dtype = np.min_scalar_type(top)
    assert dtype.kind == "u" and np.iinfo(dtype).max >= top, top
    counts = np.tile(out_degree.astype(dtype), (t.shape[0], 1))
    return status, counts, loss_eligible


def threshold_init(graph: DatabaseGraph, t: int) -> RAProblem:
    """The one-row problem of threshold ``t`` of a capture database."""
    if t < 1:
        raise ValueError(f"threshold must be >= 1, got {t}")
    status, counts, eligible = seed_thresholds(graph.best_exit, graph.out_degree, [t])
    return RAProblem(
        graph.size, status[0], counts[0], csr_provider(graph.reverse), eligible[0]
    )


def csr_provider(reverse: CSR) -> PredecessorProvider:
    """Predecessors from a precomputed transposed adjacency."""
    return reverse.neighbors_of


def unmove_provider(game, db_id) -> PredecessorProvider:
    """Predecessors via on-the-fly unmove generation (paper-faithful)."""
    return partial(game.predecessors_internal, db_id)


def sort_runs(values: np.ndarray):
    """Sort ``values`` in place; return its distinct values and run lengths."""
    values.sort()
    is_bound = np.empty(values.shape[0] + 1, dtype=bool)
    is_bound[0] = is_bound[-1] = True
    np.not_equal(values[1:], values[:-1], out=is_bound[1:-1])
    bounds = is_bound.nonzero()[0]
    return values[bounds[:-1]], bounds[1:] - bounds[:-1]


def apply_updates(status, counts, loss_eligible, flat, win):
    """Notify parents ``flat`` of 1-D state, of a LOSS child where ``win``
    and of a WIN child elsewhere; WIN takes priority over counter
    exhaustion.  Returns the sorted ``(new_win, new_loss)``."""
    new_win = sort_runs(flat[win])[0]
    new_win = new_win[status[new_win] == UNKNOWN]
    status[new_win] = WIN
    # Each parent is one run, no longer than its out-degree (the dtype's).
    zeroed, decrements = sort_runs(flat[~win])
    counts[zeroed] -= decrements.astype(counts.dtype)
    new_loss = zeroed[(counts[zeroed] == 0) & (status[zeroed] == UNKNOWN)]
    new_loss = new_loss[loss_eligible[new_loss]]
    status[new_loss] = LOSS
    return new_win, new_loss


_UNKNOWN, _WIN, _LOSS = int(UNKNOWN), int(WIN), int(LOSS)


def apply_updates_scalar(status, counts, loss_eligible, flat, win):
    """:func:`apply_updates` for a handful of updates: the same rule on
    memoryviews of the 1-D state, with ``flat`` and ``win`` sequences of
    Python ints.  Counters wrap in their dtype as ``counts -= runs``
    does.  Returns the sorted ``(new_win, new_loss)`` as lists."""
    new_win = sorted({i for i, w in zip(flat, win) if w and status[i] == _UNKNOWN})
    for i in new_win:
        status[i] = _WIN
    mask = (1 << 8 * counts.itemsize) - 1
    zeroed = set()
    for i, w in zip(flat, win):
        if not w:
            counts[i] = (counts[i] - 1) & mask
            zeroed.add(i)
    new_loss = sorted(
        i
        for i in zeroed
        if counts[i] == 0 and status[i] == _UNKNOWN and loss_eligible[i]
    )
    for i in new_loss:
        status[i] = _LOSS
    return new_win, new_loss


def solve_kernel(problem: RAProblem, record_rounds: bool = False) -> RAResult:
    """Run retrograde propagation of every row to its least fixpoint.

    A round gathers its flat frontier in slices of ``size // rows``
    entries, which keeps its transient arrays below a one-row round's.
    That is exact: a parent whose counter reaches zero has no LOSS child
    for a later slice to report.  Positions still UNKNOWN at the end are
    the draws of their row (on cycles neither player can profitably leave).
    """
    n = problem.size
    status, counts, loss_eligible = (
        a.reshape(-1) for a in (problem.status, problem.counts, problem.loss_eligible)
    )
    n_rows = status.shape[0] // n if n else 0
    step = max(1, n // max(n_rows, 1))
    depth = np.full(status.shape, -1, dtype=np.int32) if record_rounds else None
    last = np.full(n_rows, -1)  # the last round with row r in the frontier
    frontier = np.flatnonzero(status != UNKNOWN)
    finalized = int(frontier.shape[0])
    notifications = round_no = 0
    round_sizes = [finalized] if record_rounds else []
    if record_rounds:
        depth[frontier] = 0

    while frontier.size:
        done, heard = [], 0
        for a in range(0, frontier.shape[0], step):
            children = frontier[a : a + step]
            row, position = np.divmod(children, n)
            last[row] = round_no
            child_row, parents = problem.predecessors(position)
            heard += int(parents.shape[0])
            if n_rows > 1:
                parents += (row * n)[child_row]
            loss_children = (status[children] == LOSS)[child_row]
            done += apply_updates(status, counts, loss_eligible, parents, loss_children)
        notifications += heard
        if not heard:
            break
        frontier = np.concatenate(done)
        round_no += 1
        finalized += int(frontier.shape[0])
        if record_rounds:
            depth[frontier] = round_no
            round_sizes.append(int(frontier.shape[0]))

    return RAResult(
        status=problem.status,
        depth=None if depth is None else depth.reshape(problem.status.shape),
        rounds=int((last + 1).sum()),
        finalized=finalized,
        parent_notifications=notifications,
        round_sizes=round_sizes,
    )
