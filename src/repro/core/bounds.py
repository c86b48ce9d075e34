"""Bounds-iteration solver — the Allis/van der Meulen/van den Herik
(1991) style algorithm, as an independent alternative to the threshold
decomposition.

Each position carries an interval ``[lo, hi]`` bracketing its value.
Jacobi sweeps tighten both ends through the Bellman operator:

* ``hi(p) <- max(best_exit(p), max over internal successors q of -lo(q))``
* ``lo(p) <- max(best_exit(p), max over internal successors q of -hi(q))``

``lo`` converges to the *finite-forcing* value (what the mover can
guarantee by reaching an exit), ``hi`` to the optimistic bound.  Under
the cycle-equals-zero convention the game value is the median of
``(lo, 0, hi)``: a positive value must be forced finitely (so it equals
``lo``), a negative one is suffered finitely (so it equals ``hi``), and
anything that brackets zero is a draw.

The equivalence with the threshold solver is itself a theorem about
these games; the test suite checks it on every database it solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..games.base import CaptureGame
from .graph import DatabaseGraph, build_database_graph
from .values import NO_EXIT, exit_values

__all__ = ["BoundsResult", "solve_bounds", "BoundsSolver"]

_NEG_INF = np.int32(-(10**6))


@dataclass
class BoundsResult:
    """Fixpoint bounds, the assembled values and the sweep count."""

    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sweeps: int


def solve_bounds(graph: DatabaseGraph, bound: int, max_sweeps: int | None = None) -> BoundsResult:
    """Run bounds iteration on one database graph to its fixpoint."""
    size = graph.size
    be = graph.best_exit.astype(np.int32)
    be_eff = np.where(be == np.int32(NO_EXIT), _NEG_INF, be)
    lo = np.full(size, -bound, dtype=np.int32)
    hi = np.full(size, bound, dtype=np.int32)
    leaf = graph.out_degree == 0
    lo[leaf] = be_eff[leaf]
    hi[leaf] = be_eff[leaf]

    fwd = graph.forward
    src = np.repeat(
        np.arange(size, dtype=np.int64), np.diff(fwd.indptr)
    )
    dst = fwd.indices
    limit = max_sweeps if max_sweeps is not None else 4 * (2 * bound + 1) * size + 8
    sweeps = 0
    while sweeps < limit:
        sweeps += 1
        new_hi = be_eff.copy()
        new_lo = be_eff.copy()
        if dst.size:
            np.maximum.at(new_hi, src, -lo[dst])
            np.maximum.at(new_lo, src, -hi[dst])
        # Bounds only tighten (monotone operator from the initial box).
        new_hi = np.minimum(new_hi, hi)
        new_lo = np.maximum(new_lo, lo)
        if (new_hi == hi).all() and (new_lo == lo).all():
            break
        hi, lo = new_hi, new_lo
    else:  # pragma: no cover - safety net
        raise RuntimeError("bounds iteration failed to converge")

    values = np.minimum(np.maximum(lo, 0), hi).astype(np.int16)
    return BoundsResult(values=values, lo=lo, hi=hi, sweeps=sweeps)


class BoundsSolver:
    """Drop-in sequential solver built on bounds iteration.

    Same interface shape as
    :class:`~repro.core.sequential.SequentialSolver.solve`: solves every
    database of a capture game in dependency order.
    """

    def __init__(self, game: CaptureGame, chunk: int = 1 << 15):
        self.game = game
        self.chunk = chunk

    def solve(self, target) -> tuple[dict, dict]:
        values: dict = {}
        sweeps: dict = {}
        for db_id in self.game.db_sequence(target):
            graph = build_database_graph(
                self.game, db_id, values, chunk=self.chunk
            )
            bound = self.game.value_bound(db_id)
            if bound == 0:
                values[db_id] = exit_values(graph.best_exit)
                sweeps[db_id] = 0
                continue
            result = solve_bounds(graph, bound)
            values[db_id] = result.values
            sweeps[db_id] = result.sweeps
        return values, sweeps
