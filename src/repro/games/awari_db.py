"""Awari wired into the :class:`~repro.games.base.CaptureGame` protocol.

Database ids are stone counts.  The n-stone database depends on every
smaller database that a capture can reach (captures take at least 2
stones, so databases n-2, n-3, ..., 0 — never n-1).
"""

from __future__ import annotations

import abc

import numpy as np

from .awari import N_MOVE_SLOTS, AwariGame, AwariRules
from .awari_index import rank_pit_major
from .base import CaptureGame, ChunkScan

__all__ = ["SowingCaptureGame", "AwariCaptureGame"]


class SowingCaptureGame(CaptureGame):
    """A 12-pit sowing game stratified by stone count.

    Everything but the rules themselves: subclasses provide
    :meth:`terminal_value` and ``engine``, whose ``indexer``,
    ``noncapture_predecessors`` and pit-major ``move_from`` follow
    :class:`AwariGame`.
    """

    # ---------------------------------------------------------- structure

    def db_sequence(self, target: int):
        if target < 0:
            raise ValueError("stone count must be >= 0")
        return list(range(target + 1))

    def db_size(self, db_id: int) -> int:
        return self.engine.indexer(db_id).count

    def value_bound(self, db_id: int) -> int:
        return int(db_id)

    def exit_db(self, db_id: int, capture: int) -> int:
        if capture <= 0 or capture > db_id:
            raise ValueError(f"invalid capture {capture} from {db_id}-stone db")
        return db_id - capture

    # -------------------------------------------------------------- rules

    @abc.abstractmethod
    def terminal_value(self, boards: np.ndarray, db_id: int) -> np.ndarray:
        """Value to the mover of each pit-major board, were it terminal."""

    # --------------------------------------------------------------- scan

    def scan_chunk(self, db_id: int, start: int, stop: int) -> ChunkScan:
        if not (0 <= start <= stop <= self.db_size(db_id)):
            raise ValueError(f"bad chunk [{start}, {stop}) for db {db_id}")
        return self.scan_positions(
            db_id, np.arange(start, stop, dtype=np.int64), start=start
        )

    def scan_positions(
        self, db_id: int, idx: np.ndarray, start: int = -1
    ) -> ChunkScan:
        """Scan an arbitrary batch of position indices (used by workers
        owning non-contiguous partitions)."""
        idx = np.asarray(idx, dtype=np.int64)
        boards = self.engine.indexer(db_id).unrank_pit_major(idx)
        n = idx.shape[0]
        legal = np.empty((n, N_MOVE_SLOTS), dtype=bool)
        capture = np.empty((n, N_MOVE_SLOTS), dtype=np.int64)
        succ = np.empty((n, N_MOVE_SLOTS), dtype=np.int64)
        for pit in range(N_MOVE_SLOTS):
            ok, captured, successors = self.engine.move_from(boards, pit)
            legal[:, pit] = ok
            capture[:, pit] = np.where(ok, captured, 0)
            # A board's rank does not depend on its stone count, so one
            # pass ranks the successors of every destination database.
            succ[:, pit] = np.where(ok, rank_pit_major(successors), 0)
        return ChunkScan(
            start=start,
            terminal=~legal.any(axis=1),
            terminal_value=self.terminal_value(boards, db_id),
            legal=legal,
            capture=capture,
            succ_index=succ,
        )

    # ------------------------------------------------------- predecessors

    def predecessors_internal(self, db_id: int, indices: np.ndarray):
        indexer = self.engine.indexer(db_id)
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        boards = indexer.unrank(idx)
        child_row, pred_boards = self.engine.noncapture_predecessors(
            boards, max_stones=db_id
        )
        return child_row, indexer.rank(pred_boards)


class AwariCaptureGame(SowingCaptureGame):
    """Batch scan/unmove interface over :class:`AwariGame`."""

    def __init__(self, rules: AwariRules | None = None):
        self.engine = AwariGame(rules)
        self.name = "awari"

    @property
    def rules(self) -> AwariRules:
        return self.engine.rules

    def terminal_value(self, boards: np.ndarray, db_id: int) -> np.ndarray:
        # Starvation rule: each side keeps the stones on its own side.
        mover = boards[:6].sum(axis=0)
        return mover - (db_id - mover)
