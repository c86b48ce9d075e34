"""Combinatorial indexing of awari stone distributions.

An awari endgame database for ``n`` stones enumerates every way of placing
``n`` indistinguishable stones into 12 pits (the player to move always owns
pits 0-5 by convention).  The number of such distributions is
``C(n + 11, 11)``.

This module provides a dense, order-preserving bijection between boards
(length-12 integer vectors summing to ``n``) and indices in
``[0, C(n + 11, 11))`` — the *combinatorial number system* applied to
compositions.  A composition ``(a_0, ..., a_11)`` is mapped to the strictly
increasing divider sequence ``b_j = a_0 + ... + a_j + j`` for ``j = 0..10``
and ranked as ``sum_j C(b_j, j + 1)`` (colexicographic order).

All operations are vectorized over batches of boards, since retrograde
analysis touches millions of positions; see the repository guides on
array-oriented Python.
"""

from __future__ import annotations

import numpy as np

__all__ = ["binomial_table", "rank_pit_major", "AwariIndexer"]


def binomial_table(max_n: int, max_k: int) -> np.ndarray:
    """Return table ``T`` with ``T[n, k] = C(n, k)`` as int64.

    Exact for every entry that fits in int64; the sizes used here
    (``n <= ~60``) are far below overflow.
    """
    table = np.zeros((max_n + 1, max_k + 1), dtype=np.int64)
    table[:, 0] = 1
    for n in range(1, max_n + 1):
        # Pascal's rule, computed row by row.
        table[n, 1:] = table[n - 1, 1:] + table[n - 1, : max_k]
    return table


#: Every C(n, k) with n <= 66 fits in int64; C(67, 33) does not.
_MAX_N = 66
#: The one binomial table behind every rank/unrank, k-major so that each
#: column ``C(., k)`` is contiguous: ``_CHOOSE[k, n] = C(n, k)``.
_CHOOSE = np.ascontiguousarray(binomial_table(_MAX_N, _MAX_N).T)


def rank_pit_major(boards: np.ndarray) -> np.ndarray:
    """Colex rank of pit-major boards ``(n_pits, N)``.

    The rank ``sum_j C(b_j, j + 1)`` reads only the dividers, never the
    stone count, so boards of different databases rank in one pass.
    """
    ranks = np.zeros(boards.shape[1], dtype=np.int64)
    prefix = np.zeros_like(boards[0])
    for j in range(boards.shape[0] - 1):
        prefix += boards[j]
        # b_j = prefix + j, so column j + 1 is read from row j onwards.
        ranks += _CHOOSE[j + 1, j:].take(prefix)
    return ranks


class AwariIndexer:
    """Bijection between n-stone boards and dense indices.

    Parameters
    ----------
    n_stones:
        Total number of stones on the board (the database identifier).
    n_pits:
        Number of pits; 12 for awari.  Exposed for testing with smaller
        toy geometries.
    """

    def __init__(self, n_stones: int, n_pits: int = 12):
        if n_stones < 0:
            raise ValueError(f"n_stones must be >= 0, got {n_stones}")
        if n_pits < 1:
            raise ValueError(f"n_pits must be >= 1, got {n_pits}")
        self.n_stones = int(n_stones)
        self.n_pits = int(n_pits)
        if self.n_stones + self.n_pits - 1 > _MAX_N:
            raise ValueError(
                f"{n_stones} stones in {n_pits} pits: indices overflow int64"
            )
        self._ndiv = self.n_pits - 1  # number of dividers b_0..b_{ndiv-1}
        #: Number of positions in the database: C(n + pits - 1, pits - 1).
        self.count = int(_CHOOSE[self._ndiv, self.n_stones + self._ndiv])

    # ------------------------------------------------------------------ rank

    def rank(self, boards: np.ndarray) -> np.ndarray:
        """Map boards ``(N, n_pits)`` (each summing to n_stones) to indices.

        Input validation is deliberately light (hot path); use
        :meth:`validate` in tests and at API boundaries.
        """
        boards = np.asarray(boards)
        squeeze = boards.ndim == 1
        if squeeze:
            boards = boards[None, :]
        if boards.shape[1] != self.n_pits:
            raise ValueError(
                f"expected boards with {self.n_pits} pits, got shape {boards.shape}"
            )
        ranks = rank_pit_major(boards.T)
        return ranks[0] if squeeze else ranks

    # ---------------------------------------------------------------- unrank

    def unrank(self, indices: np.ndarray) -> np.ndarray:
        """Map indices ``(N,)`` back to boards ``(N, n_pits)`` (int16)."""
        squeeze = np.ndim(indices) == 0
        boards = np.ascontiguousarray(self.unrank_pit_major(indices).T)
        return boards[0] if squeeze else boards

    def unrank_pit_major(self, indices: np.ndarray) -> np.ndarray:
        """Map indices ``(N,)`` to pit-major boards ``(n_pits, N)`` (int16)."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64)).copy()
        if idx.size and (idx.min() < 0 or idx.max() >= self.count):
            raise ValueError(
                f"index out of range [0, {self.count}) for n={self.n_stones}"
            )
        boards = np.empty((self.n_pits, idx.shape[0]), dtype=np.int16)
        # Recover dividers from the highest down: b_j is the largest value
        # with C(b_j, j + 1) <= remaining rank.  searchsorted on the (sorted)
        # column C(., j + 1) finds it in O(log table) per element.  Pit
        # j + 1 holds a_{j+1} = b_{j+1} - b_j - 1 stones, with the virtual
        # divider b_ndiv = n_stones + ndiv closing the last pit; a_0 = b_0.
        upper = self.n_stones + self._ndiv
        for j in range(self._ndiv - 1, -1, -1):
            col = _CHOOSE[j + 1]
            b = np.searchsorted(col, idx, side="right") - 1
            boards[j + 1] = upper - b - 1
            idx -= col[b]
            upper = b
        boards[0] = upper
        return boards

    # ----------------------------------------------------------------- misc

    def all_boards(self, chunk: int | None = None) -> np.ndarray:
        """Materialize every board in index order, shape ``(count, n_pits)``.

        For large databases prefer :meth:`iter_chunks`.
        """
        return self.unrank(np.arange(self.count, dtype=np.int64))

    def iter_chunks(self, chunk: int = 1 << 16):
        """Yield ``(start, boards)`` tuples covering the whole index space."""
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        for start in range(0, self.count, chunk):
            stop = min(start + chunk, self.count)
            yield start, self.unrank(np.arange(start, stop, dtype=np.int64))

    def validate(self, boards: np.ndarray) -> None:
        """Raise ``ValueError`` unless every row is a valid n-stone board."""
        boards = np.atleast_2d(np.asarray(boards))
        if boards.shape[1] != self.n_pits:
            raise ValueError(f"boards must have {self.n_pits} pits")
        if (boards < 0).any():
            raise ValueError("negative pit counts")
        sums = boards.sum(axis=1)
        if (sums != self.n_stones).any():
            bad = int(np.flatnonzero(sums != self.n_stones)[0])
            raise ValueError(
                f"board {bad} sums to {int(sums[bad])}, expected {self.n_stones}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AwariIndexer(n_stones={self.n_stones}, n_pits={self.n_pits}, "
            f"count={self.count})"
        )
