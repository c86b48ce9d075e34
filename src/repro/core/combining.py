"""Message combining — the paper's central optimization.

Without combining, every parent notification (child finalized → tell the
parent's owner) is its own message, and the fixed per-message software
overhead plus per-frame wire overhead swamp the computation.  The
combining layer keeps one buffer per destination processor, appends
updates until the buffer holds ``capacity`` of them, and ships the whole
buffer as a single packet.  Partial buffers are force-flushed after a
short idle linger, so no update can be stranded (deadlock freedom;
termination detection counts packets, not updates).

``capacity=1`` degenerates to the naive one-message-per-update algorithm
and is exactly the "no combining" baseline of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["UPDATE_BYTES", "UpdatePacket", "CombiningBuffers", "CombiningStats"]

#: Simulated wire size of one update: 4-byte position + 1-byte kind.
UPDATE_BYTES = 5


@dataclass
class UpdatePacket:
    """A combined batch of updates for one destination.

    ``kinds`` is an opaque one-byte tag per update.  The RA workers pack
    ``threshold << 1 | kind`` into it (kind 0 = child became WIN, so
    decrement the parent's counter; kind 1 = child became LOSS, so the
    parent can win) — see ``repro.core.parallel.worker.pack_kind``.
    """

    positions: np.ndarray
    kinds: np.ndarray

    @property
    def n_updates(self) -> int:
        return int(self.positions.shape[0])

    @property
    def size_bytes(self) -> int:
        return self.n_updates * UPDATE_BYTES


@dataclass
class CombiningStats:
    """Buffered-update accounting for one worker."""

    updates: int = 0
    packets: int = 0
    forced_flushes: int = 0
    capacity_flushes: int = 0

    @property
    def combining_factor(self) -> float:
        """Average updates per packet — the paper's headline overhead
        reduction."""
        return self.updates / self.packets if self.packets else 0.0


class CombiningBuffers:
    """Per-destination update buffers for one worker: row ``d`` of two
    ``(n_dest, width)`` arrays holds ``pending(d)`` updates.  ``width``
    starts at ``min(capacity, 1024)`` and doubles on demand, so a huge
    capacity costs only what is actually buffered."""

    def __init__(self, n_dest: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if n_dest < 1:
            raise ValueError("need at least one destination")
        self.capacity = int(capacity)
        self.n_dest = int(n_dest)
        self._width = min(self.capacity, 1024)
        self._positions = np.empty((self.n_dest, self._width), dtype=np.int64)
        self._kinds = np.empty((self.n_dest, self._width), dtype=np.uint8)
        self._fill = [0] * n_dest
        self.stats = CombiningStats()

    def pending(self, dest: int) -> int:
        return self._fill[dest]

    @property
    def total_pending(self) -> int:
        return sum(self._fill)

    def append(self, dest_of: np.ndarray, positions: np.ndarray, kinds: np.ndarray):
        """Buffer a batch of updates, yielding ``(dest, packet)`` for every
        buffer that reaches capacity.  One stable argsort groups the batch;
        each group is copied into its row as one slice."""
        dest_of = np.asarray(dest_of, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.uint8)
        if not (dest_of.shape == positions.shape == kinds.shape):
            raise ValueError("mismatched update batch arrays")
        n = dest_of.shape[0]
        if n == 0:
            return []
        self.stats.updates += n
        order = dest_of.argsort(kind="stable")
        dest_of, positions, kinds = dest_of[order], positions[order], kinds[order]
        cuts = ((dest_of[1:] != dest_of[:-1]).nonzero()[0] + 1).tolist()
        starts = [0, *cuts]
        ready = []
        for dest, a, b in zip(dest_of[starts].tolist(), starts, [*cuts, n]):
            fill = self._fill[dest]
            end = fill + b - a
            if end > self._width:
                extra = max(end, 2 * self._width) - self._width
                self._width += extra
                self._positions = np.pad(self._positions, ((0, 0), (0, extra)))
                self._kinds = np.pad(self._kinds, ((0, 0), (0, extra)))
            self._positions[dest, fill:end] = positions[a:b]
            self._kinds[dest, fill:end] = kinds[a:b]
            self._fill[dest] = end
            if end >= self.capacity:
                ready += self._pop(dest, end - end % self.capacity)
        self.stats.capacity_flushes += len(ready)
        return ready

    def _pop(self, dest: int, stop: int) -> list:
        """Ship ``dest``'s first ``stop`` updates (one row-slice copy) as
        packets of up to ``capacity``; the rest moves to the row's front."""
        fill, cap = self._fill[dest], self.capacity
        pos, kin = self._positions[dest, :stop].copy(), self._kinds[dest, :stop].copy()
        self._positions[dest, : fill - stop] = self._positions[dest, stop:fill]
        self._kinds[dest, : fill - stop] = self._kinds[dest, stop:fill]
        self._fill[dest] = fill - stop
        packets = [
            (dest, UpdatePacket(positions=pos[a : a + cap], kinds=kin[a : a + cap]))
            for a in range(0, stop, cap)
        ]
        self.stats.packets += len(packets)
        return packets

    def flush_all(self):
        """Drain every buffer (the worker's idle linger has expired)."""
        ready = []
        for dest in range(self.n_dest):
            if self._fill[dest]:
                ready += self._pop(dest, self._fill[dest])
        self.stats.forced_flushes += len(ready)
        return ready
