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

from dataclasses import dataclass

__all__ = ["UPDATE_BYTES", "UpdatePacket", "CombiningBuffers", "CombiningStats"]

#: Simulated wire size of one update: 4-byte position + 1-byte kind.
UPDATE_BYTES = 5


@dataclass
class UpdatePacket:
    """A combined batch of updates for one destination, as two lists of
    Python ints.

    ``positions`` are local slots on the destination (the owner of each
    updated parent), so the receiver indexes its state without a
    partition lookup.  ``kinds`` is an opaque one-byte tag per update.
    The RA workers pack ``threshold << 1 | kind`` into it (kind 0 =
    child became WIN, so decrement the parent's counter; kind 1 = child
    became LOSS, so the parent can win) — see
    ``repro.core.parallel.worker.pack_kind``.
    """

    positions: list
    kinds: list

    @property
    def n_updates(self) -> int:
        return len(self.positions)

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
    """Per-destination update buffers for one worker: a pair of Python
    lists (positions, kinds) per destination holds ``pending(d)``
    updates.  A simulated step buffers a handful of updates, so plain
    lists fit it, and a packet leaves as two list slices."""

    def __init__(self, n_dest: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if n_dest < 1:
            raise ValueError("need at least one destination")
        self.capacity = int(capacity)
        self.n_dest = int(n_dest)
        self._positions: list = [[] for _ in range(self.n_dest)]
        self._kinds: list = [[] for _ in range(self.n_dest)]
        #: Updates buffered over all destinations.
        self.total_pending = 0
        self.stats = CombiningStats()

    def pending(self, dest: int) -> int:
        return len(self._positions[dest])

    def append(self, dests, positions, kinds):
        """Buffer a batch of updates given as equal-length sequences of
        ints, yielding ``(dest, packet)`` for every buffer that reaches
        capacity, in ascending destination order.  Each destination
        keeps its updates in arrival order."""
        n = len(dests)
        if not n == len(positions) == len(kinds):
            raise ValueError("mismatched update batch arrays")
        self.stats.updates += n
        self.total_pending += n
        cap, pos, kin = self.capacity, self._positions, self._kinds
        # Every buffer holds fewer than ``cap`` updates between calls, so
        # each destination that fills one passes ``cap`` exactly once.
        full = []
        for dest, position, kind in zip(dests, positions, kinds):
            buffered = pos[dest]
            buffered.append(position)
            kin[dest].append(kind)
            if len(buffered) == cap:
                full.append(dest)
        ready = []
        for dest in sorted(full):
            fill = len(pos[dest])
            ready += self._pop(dest, fill - fill % cap)
        self.stats.capacity_flushes += len(ready)
        return ready

    def _pop(self, dest: int, stop: int) -> list:
        """Ship ``dest``'s first ``stop`` updates as packets of up to
        ``capacity``; the rest stays buffered."""
        cap, pos, kin = self.capacity, self._positions[dest], self._kinds[dest]
        packets = [
            (dest, UpdatePacket(positions=pos[a : a + cap], kinds=kin[a : a + cap]))
            for a in range(0, stop, cap)
        ]
        del pos[:stop], kin[:stop]
        self.total_pending -= stop
        self.stats.packets += len(packets)
        return packets

    def flush_all(self):
        """Drain every buffer (the worker's idle linger has expired)."""
        ready = []
        for dest in range(self.n_dest):
            if self._positions[dest]:
                ready += self._pop(dest, len(self._positions[dest]))
        self.stats.forced_flushes += len(ready)
        return ready
