"""Circuit breakers, candidate ordering, and the liveness probe.

The breaker tests drive state transitions with an injected fake clock —
no sleeping — and pin the transition counters the chaos soak and the
CLI read.  The liveness tests run :func:`probe_endpoint`'s binary ping
against a live probe server: alive while it serves, not alive once it
is shut down or refusing connections at its cap.
"""

import pytest

from repro.aserve.client import BinaryProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.cluster.health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    EndpointHealth,
    probe_endpoint,
)
from repro.obs import MetricsRegistry
from repro.serve.service import ProbeService

from tests.workloads import solved_set


class FakeClock:
    """Monotonic seconds under test control."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(threshold=1, reset=1.0, registry=None):
    clock = FakeClock()
    breaker = CircuitBreaker(
        threshold=threshold, reset_seconds=reset, clock=clock,
        metrics=registry,
    )
    return breaker, clock


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_default_threshold_trips_on_first_failure(self):
        registry = MetricsRegistry()
        breaker, _ = make_breaker(registry=registry)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert registry.counters["cluster.breaker.opens"] == 1

    def test_higher_threshold_needs_consecutive_failures(self):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = make_breaker(threshold=2)
        breaker.record_failure()
        assert not breaker.record_success()  # closed stays closed
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # count restarted

    def test_open_turns_half_open_after_reset_window(self):
        registry = MetricsRegistry()
        breaker, clock = make_breaker(reset=5.0, registry=registry)
        breaker.record_failure()
        clock.advance(4.99)
        assert breaker.state == BREAKER_OPEN
        clock.advance(0.02)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # probe-back traffic flows
        assert registry.counters["cluster.breaker.probes"] == 1
        # The lazy transition fires once, not on every read.
        assert breaker.state == BREAKER_HALF_OPEN
        assert registry.counters["cluster.breaker.probes"] == 1

    def test_half_open_success_reinstates(self):
        registry = MetricsRegistry()
        breaker, clock = make_breaker(reset=1.0, registry=registry)
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_success() is True  # reinstatement
        assert breaker.state == BREAKER_CLOSED
        assert registry.counters["cluster.breaker.closes"] == 1

    def test_half_open_failure_reopens_instantly(self):
        breaker, clock = make_breaker(threshold=3, reset=1.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.state == BREAKER_HALF_OPEN
        # One failed probe re-opens — no second threshold to climb.
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.advance(1.5)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="reset_seconds"):
            CircuitBreaker(reset_seconds=0)


class TestEndpointHealth:
    def test_healthy_cluster_routes_in_topology_order(self):
        health = EndpointHealth([3, 2])
        assert health.candidates(0) == [0, 1, 2]
        assert health.candidates(1) == [0, 1]

    def test_open_primary_is_demoted_not_excluded(self):
        clock = FakeClock()
        health = EndpointHealth([3], clock=clock)
        health.breaker(0, 0).record_failure()
        assert health.candidates(0) == [1, 2, 0]
        assert health.snapshot() == [
            [BREAKER_OPEN, BREAKER_CLOSED, BREAKER_CLOSED]
        ]

    def test_half_open_is_preferred_over_closed(self):
        clock = FakeClock()
        health = EndpointHealth([2], reset_seconds=1.0, clock=clock)
        health.breaker(0, 0).record_failure()
        assert health.candidates(0) == [1, 0]
        clock.advance(2.0)
        # Probe-back first: the recovering primary leads again.
        assert health.candidates(0) == [0, 1]
        health.breaker(0, 0).record_success()
        assert health.candidates(0) == [0, 1]
        assert health.snapshot() == [[BREAKER_CLOSED, BREAKER_CLOSED]]


@pytest.fixture(scope="module")
def live_service():
    _, dbs = solved_set("synthetic")
    service = ProbeService.from_database_set(dbs)
    yield service
    service.close()


class TestProbeEndpoint:
    def test_live_server_pongs(self, live_service):
        server = AsyncProbeServer(live_service).start()
        try:
            assert probe_endpoint(server.host, server.port, timeout=5.0)
        finally:
            server.shutdown()
        # The very same address refuses after shutdown: no false pong.
        assert not probe_endpoint(server.host, server.port, timeout=0.5)

    def test_server_at_max_connections_is_not_alive(self, live_service):
        """A server refusing connections at its cap answers the ping
        with a seq-0 refusal, not a pong."""
        server = AsyncProbeServer(live_service, max_connections=1).start()
        try:
            with BinaryProbeClient(server.host, server.port) as held:
                assert held.ping()
                assert not probe_endpoint(server.host, server.port,
                                          timeout=5.0)
        finally:
            server.shutdown()

    def test_unused_port_is_not_alive(self):
        assert not probe_endpoint("127.0.0.1", 1, timeout=0.2)
