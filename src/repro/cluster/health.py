"""Per-endpoint health: circuit breakers and liveness probes.

The router's original failure handling was a one-way ratchet: a
transport failure *rotated* the shard to its next endpoint, and the
demoted primary was never consulted again — a restarted server stayed
invisible forever.  This module replaces that with the standard circuit
breaker per endpoint:

``closed``
    The endpoint is trusted; requests flow.  ``threshold`` consecutive
    transport failures trip it open.  (The default threshold is 1: one
    *surfaced* transport failure already represents an exhausted
    reconnect policy inside the client, not a single dropped packet.)
``open``
    The endpoint is distrusted; the router prefers every other
    endpoint and only falls back to an open one when nothing healthier
    is left.  After ``reset_seconds`` the breaker moves to half-open.
``half-open``
    Probe-back: the endpoint is *preferred* again so the next real
    request doubles as the probe.  Success closes the breaker (the
    restarted primary is reinstated); failure re-opens it for another
    ``reset_seconds``.

Probing with real traffic keeps the router dependency-free and means
reinstatement needs no background thread: the price is one failed
request against a still-dead endpoint per reset window, which the
router absorbs as an ordinary failover.

:class:`EndpointHealth` holds one breaker per (shard, endpoint) and
orders each shard's candidates: half-open first (probe-back), then
closed, then open as a last resort — all in topology order (primary
before replicas) within each class, so a healthy cluster routes
exactly as before this module existed.

:func:`probe_endpoint` is the supervisor's liveness check: one binary
``ping`` frame round trip over a blocking socket.

Clocks are injectable everywhere (``clock`` returns monotonic seconds)
so breaker tests advance time without sleeping.
"""

from __future__ import annotations

import socket
import threading
import time

from ..aserve import frames
from ..obs import NULL_METRICS

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "EndpointHealth",
    "probe_endpoint",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: The liveness ping's sequence id, and the only reply that counts as
#: alive: a pong frame echoing it, byte for byte.
_PING_SEQ = 1
_PONG = frames.pack_frame(frames.encode_pong(_PING_SEQ))

#: Consecutive surfaced transport failures that trip a breaker open.
DEFAULT_THRESHOLD = 1

#: Seconds an open breaker waits before allowing a probe-back.
DEFAULT_RESET_SECONDS = 1.0


class CircuitBreaker:
    """Closed → open → half-open → closed, driven by request outcomes.

    Thread-safe: a router records outcomes on its caller's thread,
    hedge stragglers included, while other attempts are still in
    flight, and any thread may read ``state``.  ``metrics`` counts
    transitions on the
    ``cluster.breaker.*`` family; ``clock`` is injectable for tests.
    """

    def __init__(self, threshold: int = DEFAULT_THRESHOLD,
                 reset_seconds: float = DEFAULT_RESET_SECONDS,
                 clock=time.monotonic, metrics=None):
        if int(threshold) < 1:
            raise ValueError("threshold must be >= 1")
        if float(reset_seconds) <= 0:
            raise ValueError("reset_seconds must be positive")
        self.threshold = int(threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._metrics = NULL_METRICS if metrics is None else metrics
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._open_until = 0.0

    @property
    def state(self) -> str:
        """Current state; lazily moves open → half-open when the reset
        window has elapsed (counted on ``cluster.breaker.probes``)."""
        with self._lock:
            return self._observe()

    def _observe(self) -> str:
        # Caller holds the lock.
        if (self._state == BREAKER_OPEN
                and self._clock() >= self._open_until):
            self._state = BREAKER_HALF_OPEN
            self._metrics.inc("cluster.breaker.probes")
        return self._state

    def allow(self) -> bool:
        """Whether a request should be sent here at all (False only
        while hard-open; half-open allows the probe-back traffic)."""
        return self.state != BREAKER_OPEN

    def record_success(self) -> bool:
        """A request completed; closes the breaker.  Returns True when
        this *reinstated* the endpoint (it was not closed before)."""
        with self._lock:
            reinstated = self._observe() != BREAKER_CLOSED
            self._state = BREAKER_CLOSED
            self._failures = 0
        if reinstated:
            self._metrics.inc("cluster.breaker.closes")
        return reinstated

    def record_failure(self) -> None:
        """A transport failure; trips the breaker at the threshold, and
        instantly re-opens a half-open breaker (the probe failed)."""
        with self._lock:
            state = self._observe()
            self._failures += 1
            trip = (state == BREAKER_HALF_OPEN
                    or (state == BREAKER_CLOSED
                        and self._failures >= self.threshold))
            if trip:
                self._state = BREAKER_OPEN
                self._open_until = self._clock() + self.reset_seconds
        if trip:
            self._metrics.inc("cluster.breaker.opens")


#: Candidate ordering: probe-back first, trusted next, distrusted last.
_STATE_RANK = {BREAKER_HALF_OPEN: 0, BREAKER_CLOSED: 1, BREAKER_OPEN: 2}


class EndpointHealth:
    """One :class:`CircuitBreaker` per (shard, endpoint).

    ``shape`` is the per-shard endpoint count (the router's topology
    shape).  :meth:`candidates` never *excludes* an endpoint — an open
    breaker only demotes it to the back of the order — so a call still
    tries every endpoint at most once before failing loudly, and the
    per-call work stays bounded by the endpoint count.
    """

    def __init__(self, shape, threshold: int = DEFAULT_THRESHOLD,
                 reset_seconds: float = DEFAULT_RESET_SECONDS,
                 clock=time.monotonic, metrics=None):
        self._breakers = [
            [
                CircuitBreaker(threshold=threshold,
                               reset_seconds=reset_seconds,
                               clock=clock, metrics=metrics)
                for _ in range(int(count))
            ]
            for count in shape
        ]

    def breaker(self, shard: int, endpoint: int) -> CircuitBreaker:
        """The breaker guarding one endpoint."""
        return self._breakers[shard][endpoint]

    def candidates(self, shard: int) -> list:
        """Endpoint indices of one shard in try-order: half-open
        (probe-back) first, closed next, open last; topology order
        (primary before replicas) within each class."""
        states = [b.state for b in self._breakers[shard]]
        return sorted(range(len(states)),
                      key=lambda i: (_STATE_RANK[states[i]], i))

    def snapshot(self) -> list:
        """Breaker states per shard, router-shaped:
        ``[[state, ...], ...]`` — the chaos soak's reinstatement
        assertion reads this."""
        return [[b.state for b in group] for group in self._breakers]


def probe_endpoint(host: str, port: int, timeout: float = 1.0) -> bool:
    """One binary ``ping`` frame round trip against a probe server.

    True only for a pong that echoes the ping's sequence id; a refusal
    (an error frame on sequence id 0, e.g. at ``max_connections``), a
    close or a timeout reads not-alive.  A blocking socket is enough, so
    the supervisor's liveness check needs no event loop and no client.
    """
    try:
        with socket.create_connection((host, port),
                                      timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(frames.pack_frame(frames.encode_ping(_PING_SEQ)))
            with sock.makefile("rb") as stream:
                reply = stream.read(len(_PONG))
    except OSError:
        return False
    return reply == _PONG
