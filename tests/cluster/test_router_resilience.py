"""Router recovery semantics: reinstatement, deadlines, hedging,
overload failover.

Two layers again.  Fake clients (no sockets) pin the router's
classification and timing contracts exactly — an overloaded endpoint
fails over without tripping its breaker, a deadline fails loudly within
budget, a slow primary loses the hedge race to the replica.  The live
layer closes the loop the original rotation design could not: a killed
*and restarted* primary serves traffic again.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.cluster.manifest import ShardManifest
from repro.cluster.router import ShardRouter
from repro.core.partition import make_partition
from repro.obs import MetricsRegistry
from repro.serve.client import (
    ProbeError,
    ProbeOverloadedError,
    ProbeTransportError,
)

from .conftest import FAST_POLICY, LocalCluster, cluster_dir, solved_set

PRIMARY_BASE = 1000
REPLICA_BASE = 2000

SIZES = {5: 40}


def encode(port: int, local: int) -> int:
    """Endpoint-identifying value, as in the partition props suite."""
    return (port // 1000) * 8000 + (port % 1000) * 500 + (local % 500)


class FakeClient:
    """Records requests; answers with endpoint-identifying values."""

    closed = False

    def __init__(self, host, port, log):
        self.host, self.port, self.log = host, port, log
        self.timeouts: list = []

    def set_timeout(self, timeout) -> None:
        self.timeouts.append(float(timeout))

    def probe(self, db_id, local):
        self.log.append((self.port, db_id, int(local)))
        return encode(self.port, int(local))

    def probe_many(self, pairs):
        pairs = list(pairs)
        for db_id, local in pairs:
            self.log.append((self.port, db_id, int(local)))
        return np.array(
            [encode(self.port, int(local)) for _, local in pairs],
            dtype=np.int16,
        )

    def close(self):
        self.closed = True


class OverloadedClient(FakeClient):
    """An endpoint that is alive but shedding every request."""

    def probe(self, db_id, local):
        super().probe(db_id, local)
        raise ProbeOverloadedError("server overloaded (1 in flight)")

    def probe_many(self, pairs):
        super().probe_many(pairs)
        raise ProbeOverloadedError("server overloaded (1 in flight)")


class SlowClient(FakeClient):
    """Answers correctly, after a fixed delay (wall clock — the hedge
    race is genuinely concurrent)."""

    def __init__(self, host, port, log, delay):
        super().__init__(host, port, log)
        self.delay = delay

    def probe_many(self, pairs):
        time.sleep(self.delay)
        return super().probe_many(pairs)


class PackedClient(FakeClient):
    """What the router calls on a real client: packed arrays in, the
    blocking call or a future of it out — answered by ``probe_many``, so
    the slow/failing subclasses behave the same with or without the
    router's pair-list adapter.  Like the real client, the future is
    answered on another thread, after ``submit_probe_packed`` returned."""

    def probe_packed(self, directory, db_slots, local):
        return self.probe_many(
            [(directory[slot], index)
             for slot, index in zip(db_slots.tolist(), local.tolist())]
        )

    def submit_probe_packed(self, directory, db_slots, local):
        future: Future = Future()

        def answer():
            try:
                future.set_result(
                    self.probe_packed(directory, db_slots, local)
                )
            except ProbeError as exc:
                future.set_exception(exc)

        threading.Thread(target=answer, daemon=True).start()
        return future


class SlowPackedClient(PackedClient, SlowClient):
    """A slow endpoint behind the packed calls."""


class BlackholedClient(FakeClient):
    """Never answers within any timeout the router grants: sleeps the
    granted budget, then fails like a timed-out socket would."""

    def probe(self, db_id, local):
        super().probe(db_id, local)
        time.sleep(self.timeouts[-1] if self.timeouts else 0.5)
        raise ProbeTransportError("timed out")

    probe_many = probe


def make_manifest(n_shards: int) -> ShardManifest:
    return ShardManifest(
        game="awari",
        rules="",
        partition="cyclic",
        n_shards=n_shards,
        block_positions=64,
        databases={
            db_id: make_partition("cyclic", size, n_shards).spec()
            for db_id, size in SIZES.items()
        },
        shard_files=[f"shard_{r:02d}.pgdb" for r in range(n_shards)],
    )


def make_router(factory, n_shards=1, replicas=1, **kwargs) -> ShardRouter:
    endpoints = [
        [("fake", PRIMARY_BASE + r)]
        + ([("fake", REPLICA_BASE + r)] if replicas else [])
        for r in range(n_shards)
    ]
    return ShardRouter(
        make_manifest(n_shards), endpoints, client_factory=factory,
        **kwargs,
    )


class TestOverloadFailover:
    def test_shed_fails_over_without_tripping_the_breaker(self):
        """An overloaded primary loses this request but keeps its
        routing rank: no breaker trip, no shard_errors, and the next
        call tries the primary first again."""
        log = []
        registry = MetricsRegistry()

        def factory(host, port):
            cls = OverloadedClient if port < REPLICA_BASE else FakeClient
            return cls(host, port, log)

        with make_router(factory, metrics=registry) as router:
            for attempt in range(1, 3):
                value = router.probe(5, 0)
                assert value == encode(REPLICA_BASE, 0)
                assert registry.counters["cluster.overloads"] == attempt
                assert registry.counters["cluster.failovers"] == attempt
                # The shed endpoint is still trusted and still first.
                assert router.health_snapshot() == [["closed", "closed"]]
                assert router.active_endpoint(0).port == PRIMARY_BASE
            assert registry.counters.get("cluster.shard_errors", 0) == 0
            assert registry.counters.get("cluster.breaker.opens", 0) == 0

    def test_every_endpoint_shedding_raises_loudly(self):
        log = []
        factory = lambda host, port: OverloadedClient(host, port, log)
        with make_router(factory) as router:
            with pytest.raises(ProbeError, match="all 2 endpoints failed"):
                router.probe(5, 0)


class TestDeadlines:
    def test_call_fails_within_the_deadline_budget(self):
        """A wedged shard: the call must fail with a loud deadline
        error within D plus scheduling slack, not hang for the transport
        timeout, and the granted socket timeouts never exceed D."""
        log = []
        registry = MetricsRegistry()
        clients = []

        def factory(host, port):
            client = BlackholedClient(host, port, log)
            clients.append(client)
            return client

        deadline = 0.3
        with make_router(factory, metrics=registry,
                         deadline=deadline, timeout=30.0) as router:
            started = time.monotonic()
            with pytest.raises(ProbeError, match="deadline"):
                router.probe(5, 0)
            elapsed = time.monotonic() - started
        assert elapsed < deadline + 0.5
        assert registry.counters["cluster.deadline_exceeded"] == 1
        for client in clients:
            for granted in client.timeouts:
                assert granted <= deadline + 1e-6

    def test_no_deadline_means_no_budget_errors(self):
        log = []
        factory = lambda host, port: FakeClient(host, port, log)
        registry = MetricsRegistry()
        with make_router(factory, metrics=registry) as router:
            assert router.probe(5, 0) == encode(PRIMARY_BASE, 0)
        assert registry.counters.get("cluster.deadline_exceeded", 0) == 0


class TestHedgedReads:
    def test_slow_primary_loses_the_race_to_the_backup(self):
        """The primary answers, but slowly; the hedge fires and the
        replica's (bit-identical) answer wins."""
        log = []
        registry = MetricsRegistry()

        def factory(host, port):
            if port < REPLICA_BASE:
                return SlowPackedClient(host, port, log, delay=0.5)
            return PackedClient(host, port, log)

        pairs = [(5, i) for i in range(SIZES[5])]
        with make_router(factory, metrics=registry,
                         hedge_after_ms=20) as router:
            values = router.probe_many(pairs)
        for (db_id, index), value in zip(pairs, values):
            part = make_manifest(1).partition_for(db_id)
            assert value == encode(REPLICA_BASE, int(part.to_local(index)))
        assert registry.counters["cluster.hedges"] == 1
        assert registry.counters["cluster.hedge_wins"] == 1
        # Nothing failed: hedging is latency insurance, not failover.
        assert registry.counters.get("cluster.shard_errors", 0) == 0

    def test_binary_scatter_hedges_a_multi_shard_batch(self):
        """The scatter once skipped the hedge whenever a batch spanned
        more than one shard: both shards' primaries are slow here, so
        every sub-batch must be hedged and answered by its shard's
        backup."""
        log = []
        registry = MetricsRegistry()

        def factory(host, port):
            if port < REPLICA_BASE:
                return SlowPackedClient(host, port, log, delay=0.5)
            return PackedClient(host, port, log)

        pairs = [(5, i) for i in range(SIZES[5])]
        started = time.monotonic()
        with make_router(factory, n_shards=2, metrics=registry,
                         hedge_after_ms=20) as router:
            values = router.probe_many(pairs)
        assert time.monotonic() - started < 0.45  # nobody waited it out
        part = make_manifest(2).partition_for(5)
        for (db_id, index), value in zip(pairs, values):
            assert value == encode(
                REPLICA_BASE + int(part.owner_of(index)),
                int(part.to_local(index)),
            )
        assert registry.counters["cluster.hedges"] == 2
        assert registry.counters["cluster.hedge_wins"] == 2
        assert registry.counters.get("cluster.shard_errors", 0) == 0

    def test_fast_primary_never_hedges(self):
        log = []
        registry = MetricsRegistry()
        factory = lambda host, port: FakeClient(host, port, log)
        pairs = [(5, i) for i in range(SIZES[5])]
        with make_router(factory, metrics=registry,
                         hedge_after_ms=200) as router:
            values = router.probe_many(pairs)
        assert registry.counters.get("cluster.hedges", 0) == 0
        part = make_manifest(1).partition_for(5)
        for (db_id, index), value in zip(pairs, values):
            assert value == encode(PRIMARY_BASE, int(part.to_local(index)))

    def test_fast_primary_failure_follows_sequential_failover(self):
        """A transport error before the hedge delay skips the hedge:
        ordinary failover, one shard_error, one failover, no hedges."""
        log = []
        registry = MetricsRegistry()

        class FailingClient(FakeClient):
            def probe_many(self, pairs):
                super().probe_many(pairs)
                raise ProbeTransportError("injected")

        def factory(host, port):
            cls = FailingClient if port < REPLICA_BASE else FakeClient
            return cls(host, port, log)

        pairs = [(5, i) for i in range(SIZES[5])]
        with make_router(factory, metrics=registry,
                         hedge_after_ms=500) as router:
            values = router.probe_many(pairs)
        part = make_manifest(1).partition_for(5)
        for (db_id, index), value in zip(pairs, values):
            assert value == encode(REPLICA_BASE, int(part.to_local(index)))
        assert registry.counters.get("cluster.hedges", 0) == 0
        assert registry.counters["cluster.failovers"] == 1
        assert registry.counters["cluster.shard_errors"] == 1


class TestHedgeStragglers:
    """An attempt still in flight when its sub-batch is decided — a
    hedge loser, or both attempts past the deadline — is settled by the
    router's next call or by ``close()``, never left holding a client."""

    @staticmethod
    def slow_router(made, primary_delay, backup_delay, **kwargs):
        def factory(host, port):
            delay = primary_delay if port < REPLICA_BASE else backup_delay
            made.append(SlowPackedClient(host, port, [], delay=delay))
            return made[-1]

        return make_router(factory, hedge_after_ms=20, **kwargs)

    def test_hedge_loser_is_closed_by_close(self):
        made = []
        registry = MetricsRegistry()
        router = self.slow_router(made, 0.3, 0.0, metrics=registry)
        pairs = [(5, i) for i in range(SIZES[5])]
        values = router.probe_many(pairs)
        router.close()
        assert values.tolist() == [encode(REPLICA_BASE, i) for i in range(40)]
        assert registry.counters["cluster.hedge_wins"] == 1
        time.sleep(0.45)  # past the primary's answer
        assert [c.port for c in made] == [PRIMARY_BASE, REPLICA_BASE]
        assert all(client.closed for client in made)

    def test_attempts_past_the_deadline_are_closed_by_close(self):
        made = []
        registry = MetricsRegistry()
        deadline = 0.2
        router = self.slow_router(made, 0.8, 0.8, metrics=registry,
                                  deadline=deadline)
        pairs = [(5, i) for i in range(SIZES[5])]
        started = time.monotonic()
        with pytest.raises(ProbeError, match="deadline"):
            router.probe_many(pairs)
        assert time.monotonic() - started < deadline + 0.4  # < 0.8
        router.close()
        assert registry.counters["cluster.deadline_exceeded"] == 1
        time.sleep(0.7)  # past both answers
        assert [c.port for c in made] == [PRIMARY_BASE, REPLICA_BASE]
        assert all(client.closed for client in made)


class TestScatterBookkeeping:
    def test_rejection_returns_every_shards_client_to_the_pool(self):
        """One shard rejects its sub-batch (a plain ProbeError) while
        the other answers: the scatter raises the rejection, but only
        after every future is resolved, so both clients are back in the
        pool and the next batch opens no new connection."""
        made = []

        class RejectingClient(PackedClient):
            def probe_many(self, pairs):
                super().probe_many(pairs)
                raise ProbeError("db 5 not present")

        def factory(host, port):
            made.append(port)
            cls = RejectingClient if port == PRIMARY_BASE else PackedClient
            return cls(host, port, [])

        pairs = [(5, i) for i in range(SIZES[5])]
        with make_router(factory, n_shards=2, replicas=0) as router:
            with pytest.raises(ProbeError, match="not present"):
                router.probe_many(pairs)
            assert sorted(made) == [PRIMARY_BASE, PRIMARY_BASE + 1]
            assert [sorted(pool) for pool in router._clients] == [[0], [0]]
            with pytest.raises(ProbeError, match="not present"):
                router.probe_many(pairs)
            assert sorted(made) == [PRIMARY_BASE, PRIMARY_BASE + 1]

    def test_probe_many_only_clients_are_adapted(self):
        """A client with nothing but ``probe_many(pairs)`` still serves a
        multi-shard scatter: the router adapts the packed calls."""
        log = []
        factory = lambda host, port: FakeClient(host, port, log)
        pairs = [(5, i) for i in range(SIZES[5])]
        with make_router(factory, n_shards=2, replicas=0) as router:
            values = router.probe_many(pairs)
        part = make_manifest(2).partition_for(5)
        for (db_id, index), value in zip(pairs, values):
            assert value == encode(
                PRIMARY_BASE + int(part.owner_of(index)),
                int(part.to_local(index)),
            )
        assert sorted({port for port, _, _ in log}) == [
            PRIMARY_BASE, PRIMARY_BASE + 1
        ]


class TestReinstatement:
    """The regression the breaker exists for: under the old one-way
    rotation, a killed-then-restarted primary never served again."""

    def test_restarted_primary_serves_again(self, tmp_path_factory):
        name = "synthetic"
        _, dbs = solved_set(name)
        directory = cluster_dir(name, 2, tmp_path_factory)
        local = LocalCluster(directory, replicas=1)
        registry = MetricsRegistry()
        router = ShardRouter(
            local.manifest, local.endpoints, metrics=registry,
            policy=FAST_POLICY, breaker_reset_seconds=0.2,
        )
        db_id = local.manifest.ids()[-1]
        pairs = [
            (db_id, i) for i in range(local.manifest.positions(db_id))
        ]
        expected = [int(dbs[db_id][i]) for _, i in pairs]
        primary_port = local.endpoints[0][0][1]
        try:
            assert list(router.probe_many(pairs)) == expected

            local.kill(0, 0)
            assert list(router.probe_many(pairs)) == expected
            assert registry.counters["cluster.failovers"] >= 1
            assert router.health_snapshot()[0][0] == "open"
            assert router.active_endpoint(0).port != primary_port

            local.restart(0, 0)
            time.sleep(0.25)  # past the breaker reset: half-open
            assert list(router.probe_many(pairs)) == expected
            # The probe-back succeeded: the primary is reinstated and
            # leads the candidate order again.
            assert router.health_snapshot()[0][0] == "closed"
            assert router.active_endpoint(0).port == primary_port
            assert registry.counters["cluster.breaker.closes"] >= 1
            assert list(router.probe_many(pairs)) == expected
        finally:
            router.close()
            local.close()
