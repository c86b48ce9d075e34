"""Router identity and failover over the pipelined binary clients.

The exhaustive per-game binary differential lives in
``tests/serve/test_aserve.py``; this module pins the *cluster* claims:
the ShardRouter — pipelined clients sharing one event-loop thread,
future-based scatter instead of a thread per shard — answers
bit-identically to the oracle, and fails over to replicas when a
shard's primary dies mid-session.
"""

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan
from repro.serve.client import ProbeError
from repro.obs.catalog import CATALOG, DYNAMIC

from .conftest import FAST_POLICY, LocalCluster, cluster_dir, solved_set


@pytest.fixture(scope="module")
def binary_cluster(tmp_path_factory):
    """A three-shard awari cluster."""
    game, dbs = solved_set("awari")
    directory = cluster_dir("awari", 3, tmp_path_factory)
    local = LocalCluster(directory)
    yield game, dbs, local
    local.close()


def all_pairs(dbs):
    return [
        (db_id, i)
        for db_id in dbs.ids()
        for i in range(dbs[db_id].shape[0])
    ]


class TestBinaryRouterIdentity:
    def test_exhaustive_scatter_gather(self, binary_cluster):
        """Every position through the async fan-out, shuffled across
        databases so every batch crosses shards."""
        game, dbs, local = binary_cluster
        rng = np.random.default_rng(11)
        pairs = all_pairs(dbs)
        rng.shuffle(pairs)
        expected = np.array(
            [int(dbs[d][i]) for d, i in pairs], dtype=np.int16
        )
        with local.router() as router:
            np.testing.assert_array_equal(
                router.probe_many(pairs), expected
            )

    def test_single_probe_and_metadata(self, binary_cluster):
        game, dbs, local = binary_cluster
        with local.router() as router:
            assert router.game_name == dbs.game_name
            top = dbs.ids()[-1]
            assert router.probe(top, 0) == int(dbs[top][0])
            assert router.depth_of(top, 0) is None
            stats = router.stats()
            assert stats["shards"] == 3


class TestBinaryRouterFailover:
    def test_dead_primary_changes_no_answer(self, tmp_path_factory):
        """Kill a shard primary under a live binary router: later
        scatters still come back bit-identical via the replica and the
        failover is counted."""
        game, dbs = solved_set("awari")
        directory = cluster_dir("awari", 2, tmp_path_factory)
        local = LocalCluster(directory, replicas=1)
        registry = MetricsRegistry()
        pairs = all_pairs(dbs)
        expected = np.array(
            [int(dbs[d][i]) for d, i in pairs], dtype=np.int16
        )
        try:
            with local.router(metrics=registry) as router:
                np.testing.assert_array_equal(
                    router.probe_many(pairs), expected
                )
                local.kill(shard=0, endpoint=0)
                np.testing.assert_array_equal(
                    router.probe_many(pairs), expected,
                    err_msg="answers changed after primary death",
                )
        finally:
            local.close()
        assert registry.counters["cluster.shard_errors"] >= 1

    def test_scatter_replays_a_dropped_connection(self, tmp_path_factory):
        """Shard 0 drops every 2nd accepted connection and has no
        replica.  A multi-shard scatter gets the client's per-connection
        replay, as a blocking call does: every batch through a fresh
        router is answered, with no shard error and no breaker trip."""
        game, dbs = solved_set("awari")
        directory = cluster_dir("awari", 2, tmp_path_factory)
        local = LocalCluster(directory, faults={
            0: FaultPlan.from_specs(["drop-conn:every=2"]),
        })
        registry = MetricsRegistry()
        rng = np.random.default_rng(29)
        pairs = all_pairs(dbs)
        try:
            for _ in range(20):
                batch = [pairs[i] for i in rng.choice(len(pairs), 64)]
                expected = [int(dbs[d][i]) for d, i in batch]
                with local.router(metrics=registry) as router:
                    assert router.probe_many(batch).tolist() == expected
        finally:
            local.close()
        assert registry.counters["cluster.fanouts"] == 40  # both shards
        assert registry.counters["aserve.client.reconnects"] >= 1
        assert registry.counters.get("cluster.shard_errors", 0) == 0
        assert registry.counters.get("cluster.breaker.opens", 0) == 0

    def test_no_replica_fails_loudly(self, tmp_path_factory):
        """With nothing to fail over to, exhaustion surfaces as a
        ProbeError naming the shard — never a wrong answer."""
        game, dbs = solved_set("awari")
        directory = cluster_dir("awari", 2, tmp_path_factory)
        local = LocalCluster(directory, replicas=0)
        pairs = all_pairs(dbs)
        try:
            with local.router(policy=FAST_POLICY) as router:
                assert router.probe_many(pairs[:50]).shape == (50,)
                local.kill(shard=0, endpoint=0)
                local.kill(shard=1, endpoint=0)
                with pytest.raises(ProbeError, match="endpoints failed"):
                    router.probe_many(pairs)
        finally:
            local.close()


class TestRouterMetricNames:
    def test_every_router_metric_is_catalogued(self, tmp_path_factory):
        """A scatter plus a failover exercise the router, its breakers
        and its pipelined clients: every name they leave in the router's
        registry must be one the catalog declares (the clients write
        under ``aserve.client.``, not bare ``requests``)."""
        game, dbs = solved_set("awari")
        directory = cluster_dir("awari", 2, tmp_path_factory)
        local = LocalCluster(directory, replicas=1)
        registry = MetricsRegistry()
        pairs = all_pairs(dbs)
        try:
            with local.router(metrics=registry) as router:
                router.probe_many(pairs)
                local.kill(shard=0, endpoint=0)
                router.probe_many(pairs)
        finally:
            local.close()
        snapshot = registry.snapshot()
        emitted = {name for family in snapshot.values() for name in family}
        assert registry.counters["cluster.failovers"] >= 1
        assert registry.counters["aserve.client.requests"] >= 2
        declared = {entry.name for entry in CATALOG}
        prefixes = tuple(entry.prefix for entry in DYNAMIC)
        stray = sorted(name for name in emitted
                       if name not in declared
                       and not name.startswith(prefixes))
        assert stray == []
