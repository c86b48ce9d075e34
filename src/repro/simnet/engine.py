"""Deterministic discrete-event simulation core.

Events are ordered by ``(time, sequence_number)`` so runs are exactly
reproducible: ties break in scheduling order.  The engine knows nothing
about processors or networks — those live in :mod:`repro.simnet.rts`
and :mod:`repro.simnet.ethernet` and schedule plain callbacks here.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling bugs (negative delays, running twice, ...)."""


class Simulator:
    """A minimal, fast event queue with a virtual clock in seconds."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: list = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), fn, args))

    def schedule_at(self, when: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, next(self._seq), fn, args))

    def run(self, max_events: int | None = None) -> int:
        """Drain the event queue; returns the number of events processed.

        The queue running dry is global quiescence: no processor has work
        and no message is in flight.  ``max_events`` guards against
        protocol livelock in tests: a run that still has events queued
        after that many raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        try:
            while self._queue:
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock?"
                    )
                when, _, fn, args = heapq.heappop(self._queue)
                self.now = when
                fn(*args)
                processed += 1
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        return len(self._queue)
