"""Awari rules engine, fully vectorized.

Board convention
----------------
A position is a length-12 vector of pit counts.  Pits 0-5 belong to the
player to move ("the mover"); pits 6-11 to the opponent.  Sowing proceeds
counterclockwise in increasing pit order, wrapping 11 -> 0 and always
skipping the origin pit, so a pit just emptied stays empty until the
opponent sows into it.

A move from pit ``i`` with ``s`` stones distributes ``q = s // 11`` stones
to every other pit plus one extra stone to the ``r = s % 11`` pits
immediately after ``i``.  If the last stone lands in an opponent pit whose
new count is 2 or 3, that pit is captured together with the unbroken chain
of preceding opponent pits holding 2 or 3 stones.

Rule variants (all configurable through :class:`AwariRules`):

* **Grand slam** — a capture that would take *every* opponent stone:
  ``CAPTURE_NOTHING`` (move stands, nothing captured; the default,
  matching common tournament rules), ``ALLOWED`` or ``FORBIDDEN``.
* **Feeding** — if the opponent's side is empty, the mover must play a
  move that reaches the opponent's side when one exists.
* **Starvation end** — when the mover has no legal move the game ends and
  each player keeps the stones remaining on their own side, i.e. the value
  to the mover is ``(mover stones) - (opponent stones)``.

Endgame-database semantics: the *value* of a position is the optimal
capture difference (mover's future captures minus the opponent's) with the
convention that infinite non-capturing play yields 0 for both sides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .awari_index import AwariIndexer

__all__ = ["GrandSlam", "AwariRules", "AwariGame", "MoveOutcome"]

N_PITS = 12
N_MOVE_SLOTS = 6  # the mover can only sow from pits 0..5
_LAP = N_PITS - 1  # stones in one full lap: the origin pit is skipped
_MOVER = slice(0, 6)
_OPP = slice(6, 12)
#: _DIST[j, i] = (j - i) mod 12: how many stones a sowing from pit ``i``
#: needs to reach pit ``j`` for the first time.
_DIST = ((np.arange(N_PITS)[:, None] - np.arange(N_PITS)[None, :]) % N_PITS).astype(
    np.int16
)


class GrandSlam(enum.Enum):
    """How to treat a capture that would empty the opponent's side."""

    ALLOWED = "allowed"
    CAPTURE_NOTHING = "capture_nothing"
    FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class AwariRules:
    """Immutable rule configuration for an awari game."""

    grand_slam: GrandSlam = GrandSlam.CAPTURE_NOTHING
    must_feed: bool = True

    def describe(self) -> str:
        return f"grand_slam={self.grand_slam.value}, must_feed={self.must_feed}"


@dataclass
class MoveOutcome:
    """Result of applying one move slot to a batch of boards.

    Attributes
    ----------
    legal:
        Boolean mask; illegal entries of the other arrays are undefined.
    captured:
        Stones captured by the move (0 for non-capturing moves).
    boards:
        Successor boards *from the new mover's perspective* (sides swapped).
    """

    legal: np.ndarray
    captured: np.ndarray
    boards: np.ndarray


def _swap_sides(boards: np.ndarray) -> np.ndarray:
    """Return boards viewed from the other player's perspective."""
    return np.concatenate([boards[:, _OPP], boards[:, _MOVER]], axis=1)


def _pit_major(boards: np.ndarray) -> np.ndarray:
    """``(N, 12)`` boards as a contiguous ``(12, N)`` int16 array."""
    boards = np.asarray(boards, dtype=np.int16)
    if boards.ndim != 2 or boards.shape[1] != N_PITS:
        raise ValueError(f"boards must be (N, {N_PITS}), got {boards.shape}")
    return np.ascontiguousarray(boards.T)


def _slot_per_board(pits: np.ndarray, n: int) -> np.ndarray:
    """``pits`` broadcast to one validated move slot for each of ``n`` boards."""
    pits = np.broadcast_to(np.asarray(pits, dtype=np.int64), (n,))
    if ((pits < 0) | (pits >= N_MOVE_SLOTS)).any():
        raise ValueError("move pits must be in 0..5")
    return pits


class AwariGame:
    """Vectorized awari move/unmove generation and terminal evaluation.

    The rules are implemented once, by :meth:`sow_from` and
    :meth:`move_from`, on *pit-major* ``(12, N)`` boards: with one pit
    for the whole batch (the database scan) every step is an operation
    on contiguous length-``N`` vectors.  The row-major methods transpose
    and delegate.
    """

    name = "awari"

    def __init__(self, rules: AwariRules | None = None):
        self.rules = rules or AwariRules()
        self._indexers: dict[int, AwariIndexer] = {}

    # ------------------------------------------------------------- indexing

    def indexer(self, n_stones: int) -> AwariIndexer:
        """Cached :class:`AwariIndexer` for the ``n_stones`` database."""
        idx = self._indexers.get(n_stones)
        if idx is None:
            idx = self._indexers[n_stones] = AwariIndexer(n_stones)
        return idx

    # ------------------------------------------------------ pit-major rules

    def sow_from(self, boards: np.ndarray, pit):
        """Sow every pit-major ``(12, N)`` int16 board from ``pit`` — one
        pit for all boards, or an ``(N,)`` array with a pit per board.

        Returns ``(sown, last_pit, stones)`` where ``last_pit`` is the pit
        receiving the final stone (undefined where ``stones == 0``).
        Captures and legality are not evaluated.
        """
        # A single pit indexes one contiguous row; a pit per board, the
        # matching entry of each column.
        origin = (pit, np.arange(boards.shape[1])) if np.ndim(pit) else pit
        stones = boards[origin]
        q, r = np.divmod(stones, _LAP)
        sown = boards + q + (r >= _DIST[:, np.atleast_1d(pit)])
        sown[origin] = 0  # the origin pit is skipped on every lap
        last_pit = (pit + np.where(r > 0, r, _LAP)) % N_PITS
        return sown, last_pit, stones

    def move_from(self, boards: np.ndarray, pit):
        """Play ``pit`` (0..5; one for all boards or one per board) on
        every pit-major ``(12, N)`` int16 board.

        Handles sowing, capture chains, the grand-slam variant and the
        feeding rule.  Returns ``(legal, captured, successors)``;
        successors are pit-major and side-swapped so that the new mover
        again owns pits 0-5, and like ``captured`` are undefined where
        not ``legal``.
        """
        sown, last_pit, stones = self.sow_from(boards, pit)
        opp = sown[_OPP]
        opp_total = opp.sum(axis=0, dtype=np.int16)
        legal = stones > 0
        if self.rules.must_feed:
            # Sowing only ever adds to the opponent's side, so "the
            # opponent was starved and this move does not feed them" is
            # just an empty opponent side after sowing.  A position where
            # that rules out every move is terminal.
            legal &= opp_total > 0

        # Capture chain: the last pit and the unbroken run of opponent
        # pits before it, all holding 2 or 3 stones.
        chain = (opp | 1) == 3
        run = False
        for k in range(5, -1, -1):
            chain[k] &= (last_pit == k + 6) | run
            run = chain[k]
        captured = np.where(chain, opp, 0).sum(axis=0, dtype=np.int16)

        if self.rules.grand_slam is not GrandSlam.ALLOWED:
            slam = (captured > 0) & (captured == opp_total)
            if self.rules.grand_slam is GrandSlam.FORBIDDEN:
                legal &= ~slam
            else:  # CAPTURE_NOTHING: the move stands, the stones stay
                chain &= ~slam
                captured[slam] = 0
        successors = np.concatenate([np.where(chain, 0, opp), sown[_MOVER]])
        return legal, captured, successors

    # ------------------------------------------------------ row-major views

    def sow(self, boards: np.ndarray, pits: np.ndarray):
        """Row-major :meth:`sow_from`: ``boards`` is ``(N, 12)`` and
        ``pits`` gives the origin pit of each row."""
        bt = _pit_major(boards)
        sown, last_pit, stones = self.sow_from(bt, _slot_per_board(pits, bt.shape[1]))
        return np.ascontiguousarray(sown.T), last_pit, stones

    def apply_move(self, boards: np.ndarray, pits: np.ndarray) -> MoveOutcome:
        """Row-major :meth:`move_from`: apply move slot ``pits[i]`` (0..5)
        to row ``i`` of the ``(N, 12)`` batch."""
        bt = _pit_major(boards)
        legal, captured, successors = self.move_from(
            bt, _slot_per_board(pits, bt.shape[1])
        )
        return MoveOutcome(
            legal=legal, captured=captured, boards=np.ascontiguousarray(successors.T)
        )

    def legal_moves(self, boards: np.ndarray) -> np.ndarray:
        """Return an ``(N, 6)`` legality mask for every move slot."""
        bt = _pit_major(boards)
        return np.stack(
            [self.move_from(bt, pit)[0] for pit in range(N_MOVE_SLOTS)], axis=1
        )

    # ------------------------------------------------------------ terminal

    def terminal_values(self, boards: np.ndarray):
        """Evaluate the end-of-game rule for a batch.

        Returns ``(is_terminal, value)``; ``value`` (mover's perspective)
        is meaningful only where ``is_terminal``.  A position is terminal
        when no legal move exists; the remaining stones then go to the
        owner of the side they sit on.
        """
        boards = np.asarray(boards, dtype=np.int16)
        legal = self.legal_moves(boards)
        is_terminal = ~legal.any(axis=1)
        value = (
            boards[:, _MOVER].sum(axis=1) - boards[:, _OPP].sum(axis=1)
        ).astype(np.int64)
        return is_terminal, value

    # -------------------------------------------------------------- unmove

    def noncapture_predecessors(self, boards: np.ndarray, max_stones: int):
        """Generate the non-capturing predecessors of each board.

        ``boards`` is an ``(N, 12)`` batch of positions (mover = pits 0-5)
        in the ``max_stones``-stone space.  A *predecessor* is a position
        with the same stone count from which one legal, non-capturing move
        produces the board.

        Candidate predecessors are enumerated by un-sowing (the origin pit
        of the move must be empty in the unswapped child) and each one is
        verified by forward application, so the result is exact by
        construction.

        Returns ``(child_row, pred_boards)`` where ``pred_boards[k]`` is a
        predecessor of ``boards[child_row[k]]``.
        """
        child = _pit_major(boards)
        # Undo the side swap: view the child from the previous mover's side.
        pre = np.concatenate([child[_OPP], child[_MOVER]])
        out_rows, out_boards = [], []
        for pit in range(N_MOVE_SLOTS):
            # The origin pit receives nothing and is emptied, and a
            # non-capturing move leaves opponent pits untouched, so the
            # origin must be empty in the unswapped child.
            cand = np.flatnonzero(pre[pit] == 0)
            if cand.size == 0:
                continue
            base = pre[:, cand]
            for s in range(1, max_stones + 1):
                q, r = divmod(s, _LAP)
                parent = base - (q + (r >= _DIST[:, pit, None])).astype(np.int16)
                parent[pit] = s
                ok = (parent >= 0).all(axis=0)
                if not ok.any():
                    continue
                rows = cand[ok]
                parent = parent[:, ok]
                # Forward verification: the move must be legal, capture
                # nothing, and reproduce the child exactly.
                legal, captured, succ = self.move_from(parent, pit)
                good = legal & (captured == 0) & (succ == child[:, rows]).all(axis=0)
                if good.any():
                    out_rows.append(rows[good])
                    out_boards.append(parent[:, good])
        if not out_rows:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, N_PITS), dtype=np.int16),
            )
        return np.concatenate(out_rows), np.concatenate(out_boards, axis=1).T

    # ------------------------------------------------------------- helpers

    def board_to_string(self, board: np.ndarray) -> str:
        """Human-readable two-row rendering (opponent row reversed)."""
        board = np.asarray(board).ravel()
        opp = " ".join(f"{int(v):2d}" for v in board[11:5:-1])
        mov = " ".join(f"{int(v):2d}" for v in board[:6])
        return f"opp  [{opp}]\nmove [{mov}]"

    def random_boards(self, n_stones: int, count: int, rng) -> np.ndarray:
        """Sample ``count`` uniform n-stone boards (by uniform index)."""
        indexer = self.indexer(n_stones)
        idx = rng.integers(0, indexer.count, size=count)
        return indexer.unrank(idx)
