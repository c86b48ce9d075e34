"""Shared retry/backoff knobs for the resilience layer.

Backoff is deterministic (pure exponential, no jitter): two runs with
the same fault plan sleep the same amounts, which is what lets the chaos
suite assert bit-identical outcomes and exact ``resilience.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["backoff_delay", "ReconnectPolicy"]


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Delay before re-execution ``attempt`` (1-based): ``base * 2**(a-1)``
    capped at ``cap``."""
    return min(base * (2 ** max(int(attempt) - 1, 0)), cap)


@dataclass(frozen=True)
class ReconnectPolicy:
    """How hard a :class:`~repro.aserve.client.BinaryProbeClient` fights back.

    ``connect_attempts`` bounds attempts per (re-)connection;
    ``request_replays`` bounds transparent replays of one idempotent
    request after a dropped connection.  Every probe-protocol operation
    is a pure lookup, so replay is always safe for them.
    """

    connect_attempts: int = 4
    request_replays: int = 3
    backoff_seconds: float = 0.05
    backoff_max_seconds: float = 1.0

    def backoff(self, attempt: int) -> float:
        return backoff_delay(attempt, self.backoff_seconds,
                             self.backoff_max_seconds)
