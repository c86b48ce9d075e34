"""Kalah (store-based mancala) as a second capture-game substrate.

The paper presents retrograde analysis as a technique "applied
successfully to several games"; this module exercises the framework on a
mancala variant with very different structure from awari:

* sowing passes through the mover's **store** — every stone dropped
  there is captured immediately, so most moves are exits and the
  internal (non-capturing) graph is much sparser;
* the capture rule is positional: a last stone landing in an *empty* own
  pit captures it together with the opposite pit's contents;
* there is no feeding obligation; when the mover's side is empty the
  opponent keeps all remaining stones.

Rule note: the "extra move when the last stone lands in the store" rule
of tournament Kalah is **omitted** (it breaks strict move alternation,
which the endgame-database formulation relies on); this simplified
variant is standard in the game-solving literature and is named
``kalah-nt`` (no extra turn) throughout.

Board encoding matches awari — 12 pits, mover owns 0-5, stores are
implicit (captured stones leave play) — so the combinatorial indexer is
shared.
"""

from __future__ import annotations

import numpy as np

from .awari import MoveOutcome, N_MOVE_SLOTS, N_PITS, _swap_sides
from .awari_db import SowingCaptureGame
from .awari_index import AwariIndexer

__all__ = ["KalahGame", "KalahCaptureGame"]

#: Sowing path: own pits 0..5, own store (slot 12), opponent pits 6..11.
#: The opponent's store is skipped entirely.
_PATH = np.array([0, 1, 2, 3, 4, 5, 12, 6, 7, 8, 9, 10, 11], dtype=np.int64)
_PATH_LEN = 13
#: position of each slot in the path (slot 12 = own store).
_PATH_POS = np.zeros(13, dtype=np.int64)
_PATH_POS[_PATH] = np.arange(_PATH_LEN)
#: opposite pit of each own pit.
_OPPOSITE = 11 - np.arange(6)


class KalahGame:
    """Vectorized kalah-nt move/unmove generation."""

    name = "kalah-nt"

    def __init__(self):
        self._indexers: dict[int, AwariIndexer] = {}

    def indexer(self, n_stones: int) -> AwariIndexer:
        idx = self._indexers.get(n_stones)
        if idx is None:
            idx = self._indexers[n_stones] = AwariIndexer(n_stones)
        return idx

    # ---------------------------------------------------------------- sow

    def sow(self, boards: np.ndarray, pits: np.ndarray):
        """Sow from ``pits`` along the kalah path.

        Returns ``(sown_13, last_path_pos, stones)`` where ``sown_13`` has
        13 columns (column 12 = stones dropped in the mover's store) and
        ``last_path_pos`` indexes the path.  Unlike awari, the origin
        *does* receive stones on later laps.
        """
        boards = np.asarray(boards, dtype=np.int16)
        pits = np.asarray(pits, dtype=np.int64)
        n = boards.shape[0]
        rows = np.arange(n)
        stones = boards[rows, pits].astype(np.int64)
        wide = np.concatenate(
            [boards, np.zeros((n, 1), dtype=np.int16)], axis=1
        )
        wide[rows, pits] = 0
        start = _PATH_POS[pits]
        # Path distance from the origin to each slot (1..13 after start).
        dist = (np.arange(_PATH_LEN)[None, :] - start[:, None]) % _PATH_LEN
        dist[dist == 0] = _PATH_LEN  # the origin is the *last* slot of a lap
        q, r = np.divmod(stones, _PATH_LEN)
        inc = q[:, None] + (dist <= r[:, None])
        # inc is indexed by path position; scatter back to slots.
        wide_inc = np.zeros_like(wide)
        wide_inc[:, _PATH] = inc.astype(np.int16)
        sown = wide + wide_inc
        last_rel = np.where(r > 0, r, np.int64(_PATH_LEN))
        last_pos = (start + last_rel) % _PATH_LEN
        return sown, last_pos, stones

    # -------------------------------------------------------------- moves

    def apply_move(self, boards: np.ndarray, pits: np.ndarray) -> MoveOutcome:
        """Apply one move slot; captured = store gains + opposite capture."""
        boards = np.asarray(boards, dtype=np.int16)
        if boards.ndim != 2 or boards.shape[1] != N_PITS:
            raise ValueError(f"boards must be (N, {N_PITS}), got {boards.shape}")
        pits = np.broadcast_to(np.asarray(pits, dtype=np.int64), boards.shape[:1]).copy()
        if pits.size and ((pits < 0) | (pits >= N_MOVE_SLOTS)).any():
            raise ValueError("move pits must be in 0..5")
        n = boards.shape[0]
        rows = np.arange(n)
        sown, last_pos, stones = self.sow(boards, pits)
        legal = stones > 0
        captured = sown[:, 12].astype(np.int64)

        # Positional capture: last stone in an own pit that now holds
        # exactly one stone (it was empty), opposite pit non-empty.
        last_slot = _PATH[last_pos]
        own_last = legal & (last_slot < 6)
        lands_empty = np.zeros(n, dtype=bool)
        lands_empty[own_last] = sown[rows[own_last], last_slot[own_last]] == 1
        opp_slot = np.where(last_slot < 6, 11 - last_slot, 0)
        opp_count = sown[rows, opp_slot].astype(np.int64)
        grab = own_last & lands_empty & (opp_count > 0)
        if grab.any():
            captured[grab] += opp_count[grab] + 1
            sown[rows[grab], last_slot[grab]] = 0
            sown[rows[grab], opp_slot[grab]] = 0

        result = _swap_sides(sown[:, :N_PITS])
        return MoveOutcome(legal=legal, captured=captured, boards=result)

    def move_from(self, boards: np.ndarray, pit: int):
        """:meth:`apply_move` on pit-major ``(12, N)`` boards, as
        ``(legal, captured, successors)`` with pit-major successors."""
        out = self.apply_move(boards.T, pit)
        return out.legal, out.captured, out.boards.T

    def legal_moves(self, boards: np.ndarray) -> np.ndarray:
        boards = np.asarray(boards, dtype=np.int16)
        return boards[:, :6] > 0

    def terminal_values(self, boards: np.ndarray):
        """No move (mover's side empty): the opponent keeps the rest."""
        boards = np.asarray(boards, dtype=np.int16)
        is_terminal = (boards[:, :6] == 0).all(axis=1)
        value = -boards[:, 6:].sum(axis=1).astype(np.int64)
        return is_terminal, value

    def board_to_string(self, board: np.ndarray) -> str:
        """Human-readable two-row rendering (opponent row reversed)."""
        board = np.asarray(board).ravel()
        opp = " ".join(f"{int(v):2d}" for v in board[11:5:-1])
        mov = " ".join(f"{int(v):2d}" for v in board[:6])
        return f"opp  [{opp}]\nmove [{mov}]"

    # -------------------------------------------------------------- unmove

    def noncapture_predecessors(self, boards: np.ndarray, max_stones: int):
        """Non-capturing predecessors by un-sowing (forward-verified).

        A non-capturing kalah move never reaches the store, so it sows at
        most ``5 - j`` stones within the mover's own row; the origin is
        empty in the (unswapped) child.
        """
        boards = np.asarray(boards, dtype=np.int16)
        n = boards.shape[0]
        if n == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, N_PITS), dtype=np.int16),
            )
        pre = _swap_sides(boards)
        out_rows, out_boards = [], []
        for pit in range(N_MOVE_SLOTS - 1):  # pit 5 always reaches the store
            cand = np.flatnonzero(pre[:, pit] == 0)
            if cand.size == 0:
                continue
            base = pre[cand]
            for s in range(1, 6 - pit):
                parent = base.copy()
                parent[:, pit + 1 : pit + 1 + s] -= 1
                parent[:, pit] = s
                ok = (parent >= 0).all(axis=1)
                if not ok.any():
                    continue
                rows = cand[ok]
                pboards = parent[ok]
                outcome = self.apply_move(pboards, np.full(rows.size, pit))
                good = (
                    outcome.legal
                    & (outcome.captured == 0)
                    & (outcome.boards == boards[rows]).all(axis=1)
                )
                if good.any():
                    out_rows.append(rows[good])
                    out_boards.append(pboards[good])
        if not out_rows:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, N_PITS), dtype=np.int16),
            )
        return np.concatenate(out_rows), np.concatenate(out_boards, axis=0)


class KalahCaptureGame(SowingCaptureGame):
    """Kalah-nt wired into the capture-game protocol (databases by stone
    count, like awari — but captures as small as one stone occur)."""

    def __init__(self):
        self.engine = KalahGame()
        self.name = "kalah-nt"

    def terminal_value(self, boards: np.ndarray, db_id: int) -> np.ndarray:
        # No move (mover's side empty): the opponent keeps the rest.
        return -boards[6:].sum(axis=0)
