"""Codec axis of the cluster differential suite.

``cluster split --codec`` must be invisible end-to-end: for every
paged-store codec, a 2-shard+replica awari cluster answers bit-identical
to the oracle through the router, keeps answering through a
primary kill (failover), and records the codec in the manifest it was
split with.
"""

import numpy as np
import pytest

from repro.cluster.manifest import ShardManifest
from repro.obs import MetricsRegistry
from repro.serve.pagedstore import CODECS

from .conftest import LocalCluster, cluster_dir, solved_set

CODEC_IDS = [c.replace("+", "-") for c in CODECS]


@pytest.fixture(scope="module", params=CODECS, ids=CODEC_IDS)
def codec_cluster(request, tmp_path_factory):
    """(codec, game, dbs, LocalCluster) — a 2-shard awari cluster with
    one replica per shard, split with the parametrized codec."""
    codec = request.param
    game, dbs = solved_set("awari")
    directory = cluster_dir(
        "awari", 2, tmp_path_factory, codec=codec
    )
    local = LocalCluster(directory, replicas=1)
    yield codec, game, dbs, local
    local.close()


def all_pairs(dbs, seed=17):
    rng = np.random.default_rng(seed)
    pairs = [
        (db_id, i)
        for db_id in dbs.ids()
        for i in range(dbs[db_id].shape[0])
    ]
    rng.shuffle(pairs)
    return pairs


class TestCodecClusterIdentity:
    def test_manifest_records_codec(self, codec_cluster):
        codec, _, _, local = codec_cluster
        assert local.manifest.codec == codec
        reloaded = ShardManifest.load(local.directory)
        assert reloaded.codec == codec

    def test_scatter_gather_bit_identical(self, codec_cluster):
        codec, _, dbs, local = codec_cluster
        pairs = all_pairs(dbs)
        expected = np.array(
            [int(dbs[d][i]) for d, i in pairs], dtype=np.int16
        )
        with local.router() as router:
            np.testing.assert_array_equal(
                router.probe_many(pairs), expected, err_msg=codec
            )

    def test_best_moves_match_oracle(self, codec_cluster):
        from repro.db.query import best_moves, evaluate_moves

        codec, game, dbs, local = codec_cluster
        indexer = game.engine.indexer(max(dbs.ids()))
        rng = np.random.default_rng(37)
        registry = MetricsRegistry()
        with local.router(metrics=registry) as router:
            for idx in rng.integers(0, indexer.count, size=5):
                board = indexer.unrank(np.array([int(idx)]))[0]
                want_value, want_moves = best_moves(game, dbs, board)
                got_value, got_moves = router.best_moves(board)
                assert got_value == want_value, f"{codec} idx {idx}"
                assert [m.pit for m in got_moves] == [
                    m.pit for m in want_moves
                ], f"{codec} idx {idx}"
            assert [(e.pit, e.value) for e in router.evaluate_moves(board)] \
                == [(e.pit, e.value) for e in evaluate_moves(game, dbs, board)]
        assert registry.counters["cluster.best_move_queries"] == 6

    def test_failover_stays_bit_identical(self, codec_cluster):
        """Kill shard 0's primary mid-session: the replica answers the
        rest of the sweep identically and the failover is counted."""
        codec, _, dbs, local = codec_cluster
        pairs = all_pairs(dbs, seed=53)
        expected = np.array(
            [int(dbs[d][i]) for d, i in pairs], dtype=np.int16
        )
        half = len(pairs) // 2
        registry = MetricsRegistry()
        with local.router(metrics=registry) as router:
            np.testing.assert_array_equal(
                router.probe_many(pairs[:half]), expected[:half],
                err_msg=codec,
            )
            local.kill(0, 0)
            np.testing.assert_array_equal(
                router.probe_many(pairs[half:]), expected[half:],
                err_msg=f"{codec} post-failover",
            )
        assert registry.counters.get("cluster.failovers", 0) >= 1
        local.restart(0, 0)
