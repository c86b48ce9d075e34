"""Concurrency stress: the shared ``BlockCache`` under real threads.

These tests pin a race the cache's ``RLock`` fixed (and staticcheck
rule RA007 now proves absent): any caller that shares one cache across
threads — a thread-per-connection server once did — raced the LRU
reorder, hit/miss counters and byte gauges before the lock.
Against the pre-fix cache the accounting assertions here fail within a
few hundred iterations (lost ``+=`` updates, ``OrderedDict``
corruption, drifting byte gauges); against the locked cache every
count is *exact*, not merely plausible:

* every ``get`` is exactly one hit or one miss, so
  ``hits + misses == total gets`` regardless of interleaving
  (single-flight: a concurrent miss on the same key becomes a hit);
* inserts only come from misses and removals only from evictions, so
  ``resident blocks == misses - evictions``;
* byte gauges equal the arithmetic over the actual resident set.
"""

import time

import numpy as np
import pytest

from repro.aserve.client import BinaryProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.obs import MetricsRegistry
from repro.serve.cache import BlockCache
from repro.serve.service import ProbeService, split_positions

from tests.serve.conftest import N_THREADS, SMALL_BUDGET, run_threads
from tests.workloads import BLOCK_POSITIONS


@pytest.fixture(autouse=True)
def aggressive_thread_switching():
    """Force frequent preemption so pre-fix races surface reliably."""
    import sys

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


class TestBlockCacheUnderContention:
    BLOCK_WORDS = 32  # int16 -> 64 bytes per block
    BLOCK_BYTES = BLOCK_WORDS * 2
    N_KEYS = 8
    GETS_PER_THREAD = 1500

    def test_exact_accounting_under_hammering(self):
        budget = 2 * self.BLOCK_BYTES  # two resident blocks + slack
        registry = MetricsRegistry()
        cache = BlockCache(budget, metrics=registry.scoped("serve.cache"))

        def loader():
            # Give up the GIL under the cache lock, as a real loader's
            # file read and zlib decode do: without it, whether two
            # threads ever meet at the lock is up to the scheduler.
            time.sleep(0)
            return np.zeros(self.BLOCK_WORDS, dtype=np.int16)

        def worker(i):
            rng = np.random.default_rng(i)
            keys = rng.integers(0, self.N_KEYS,
                                size=self.GETS_PER_THREAD)
            for key in keys:
                block = cache.get(int(key), loader)
                assert block.nbytes == self.BLOCK_BYTES

        run_threads(worker)

        total = N_THREADS * self.GETS_PER_THREAD
        # Every get is exactly one hit or one miss — no lost updates.
        assert cache.hits + cache.misses == total
        # Inserts only from misses, removals only from evictions.
        assert len(cache) == cache.misses - cache.evictions
        # Byte gauges equal the arithmetic over the resident set.
        resident = list(cache._blocks.values())
        assert cache.resident_bytes == sum(
            int(b.nbytes) for b, _ in resident
        )
        assert cache.packed_resident_bytes == sum(
            stored for _, stored in resident
        )
        # Budget + one block, never exceeded even transiently at rest.
        assert cache.resident_bytes <= budget + self.BLOCK_BYTES
        assert cache.peak_resident_bytes <= budget + self.BLOCK_BYTES
        # Heavy cross-thread traffic must have contended the lock at
        # least once (the gauge is how operators see serialization).
        assert cache.lock_contended > 0
        assert registry.counters["serve.cache.lock_contended"] == \
            cache.lock_contended

    def test_stats_snapshots_stay_consistent_mid_flight(self):
        """A reader thread sees internally consistent snapshots while
        writers hammer: with equal-sized blocks the byte gauge is
        always exactly blocks x block-size, and hit_rate is a true
        ratio of the snapshot's own counters."""
        cache = BlockCache(2 * self.BLOCK_BYTES)

        def loader():
            return np.zeros(self.BLOCK_WORDS, dtype=np.int16)

        def worker(i):
            if i == 0:  # the reader
                for _ in range(400):
                    snap = cache.stats()
                    assert snap["resident_bytes"] == (
                        snap["resident_blocks"] * self.BLOCK_BYTES
                    )
                    assert snap["resident_blocks"] == (
                        snap["misses"] - snap["evictions"]
                    )
                    total = snap["hits"] + snap["misses"]
                    expected = snap["hits"] / total if total else 0.0
                    assert snap["hit_rate"] == expected
                return
            rng = np.random.default_rng(i)
            for key in rng.integers(0, self.N_KEYS, size=800):
                cache.get(int(key), loader)

        run_threads(worker)

    def test_clear_races_with_gets(self):
        """clear() interleaved with gets must leave exact accounting
        (pre-fix, a clear racing a put left phantom resident bytes)."""
        cache = BlockCache(4 * self.BLOCK_BYTES)

        def loader():
            return np.zeros(self.BLOCK_WORDS, dtype=np.int16)

        def worker(i):
            rng = np.random.default_rng(i)
            for n, key in enumerate(
                    rng.integers(0, self.N_KEYS, size=600)):
                cache.get(int(key), loader)
                if i == 0 and n % 50 == 0:
                    cache.clear()

        run_threads(worker)
        resident = list(cache._blocks.values())
        assert cache.resident_bytes == sum(
            int(b.nbytes) for b, _ in resident
        )
        assert cache.packed_resident_bytes == sum(
            stored for _, stored in resident
        )


class TestBatchGatherUnderContention:
    """N threads of ``probe_packed`` against one service whose cache
    holds two blocks: every batch takes the cache lock once per window
    and loads, evicts and gathers while five other threads do the same."""

    BATCHES = 25
    BATCH_SIZE = 60

    def test_answers_and_accounting_stay_exact(
        self, awari_solved, awari_paged_path
    ):
        _, dbs = awari_solved
        ids = dbs.ids()
        plans, lookups = [], 0
        for seed in range(N_THREADS):
            rng = np.random.default_rng(seed)
            batches = []
            for _ in range(self.BATCHES):
                pairs = [
                    (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
                    for d in rng.choice(ids, size=self.BATCH_SIZE)
                ]
                lookups += len({(d, i // BLOCK_POSITIONS) for d, i in pairs})
                batches.append((
                    split_positions(pairs),
                    np.array([dbs[d][i] for d, i in pairs], dtype=np.int16),
                ))
            plans.append(batches)

        with ProbeService.from_paged(
            awari_paged_path, cache_bytes=SMALL_BUDGET
        ) as service:
            cache = service.backend.cache

            def worker(i):
                for packed, expected in plans[i]:
                    np.testing.assert_array_equal(
                        service.probe_packed(*packed), expected
                    )
                    assert cache.stats()["resident_bytes"] <= (
                        SMALL_BUDGET + 2 * BLOCK_POSITIONS
                    )

            run_threads(worker)

            # One lookup per distinct (db, block) of each batch, each
            # exactly one hit or one miss, whatever the interleaving.
            assert cache.hits + cache.misses == lookups
            assert len(cache) == cache.misses - cache.evictions
            resident = list(cache._blocks.values())
            assert cache.resident_bytes == sum(
                int(b.nbytes) for b, _ in resident
            )
            assert cache.packed_resident_bytes == sum(
                stored for _, stored in resident
            )
            assert cache.peak_resident_bytes <= (
                SMALL_BUDGET + 2 * BLOCK_POSITIONS
            )


class TestLiveServerStress:
    """N client threads against one probe server over a paged store
    with a deliberately tiny cache budget: zero wrong answers, and the
    shared cache's accounting stays exact."""

    SINGLES = 40
    BATCHES = 12
    BATCH_SIZE = 30

    @pytest.fixture()
    def stressed(self, awari_solved, awari_paged_path):
        game, dbs = awari_solved
        service = ProbeService.from_paged(
            awari_paged_path, cache_bytes=SMALL_BUDGET
        )
        server = AsyncProbeServer(service).start()
        yield game, dbs, service, server
        server.shutdown()
        service.close()

    def _plan(self, dbs, seed):
        """Deterministic per-thread traffic: (singles, batches)."""
        rng = np.random.default_rng(seed)
        ids = dbs.ids()
        singles = [
            (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
            for d in rng.choice(ids, size=self.SINGLES)
        ]
        batches = []
        for _ in range(self.BATCHES):
            batches.append([
                (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
                for d in rng.choice(ids, size=self.BATCH_SIZE)
            ])
        return singles, batches

    @staticmethod
    def _expected_gets(singles, batches):
        """Cache gets the traffic must cost: one per single probe, one
        per distinct (db, block) of each batch (the service's locality
        sort gathers each block exactly once per request)."""
        gets = len(singles)
        for batch in batches:
            gets += len({(d, i // BLOCK_POSITIONS) for d, i in batch})
        return gets

    def test_zero_wrong_answers_and_exact_cache_accounting(self, stressed):
        game, dbs, service, server = stressed
        plans = [self._plan(dbs, seed) for seed in range(N_THREADS)]

        def worker(i):
            singles, batches = plans[i]
            with BinaryProbeClient(server.host, server.port) as client:
                for n, (d, idx) in enumerate(singles):
                    assert client.probe(d, idx) == int(dbs[d][idx])
                    if n % 10 == 0:
                        snap = client.stats()
                        assert 0.0 <= snap["hit_rate"] <= 1.0
                        assert snap["resident_bytes"] <= (
                            SMALL_BUDGET + 2 * BLOCK_POSITIONS
                        )
                for batch in batches:
                    expected = np.array(
                        [int(dbs[d][idx]) for d, idx in batch],
                        dtype=np.int16,
                    )
                    np.testing.assert_array_equal(
                        client.probe_many(batch), expected
                    )

        run_threads(worker)

        cache = service.backend.cache
        expected_gets = sum(
            self._expected_gets(singles, batches)
            for singles, batches in plans
        )
        # Exact: every get was one hit or one miss, none lost, none
        # double-counted, across all connections.
        assert cache.hits + cache.misses == expected_gets
        assert len(cache) == cache.misses - cache.evictions
        resident = list(cache._blocks.values())
        assert cache.resident_bytes == sum(
            int(b.nbytes) for b, _ in resident
        )
        assert cache.packed_resident_bytes == sum(
            stored for _, stored in resident
        )
        max_block = 2 * BLOCK_POSITIONS  # int16 positions per block
        assert cache.resident_bytes <= SMALL_BUDGET + max_block
        assert cache.peak_resident_bytes <= SMALL_BUDGET + max_block
        # The stats op ships the contention gauge over the wire.
        assert "lock_contended" in service.stats()

    def test_best_moves_stay_correct_under_concurrency(self, stressed):
        """Mixed best-move traffic: the query path batches probes
        through the same shared cache and must agree with the local
        ground truth from every thread."""
        from repro.db.query import best_moves

        game, dbs, service, server = stressed
        indexer = game.engine.indexer(5)
        rng = np.random.default_rng(77)
        boards = [
            indexer.unrank(np.array([int(idx)]))[0]
            for idx in rng.integers(0, indexer.count, size=N_THREADS * 3)
        ]
        truths = [best_moves(game, dbs, board) for board in boards]

        def worker(i):
            mine = list(range(i, len(boards), N_THREADS))
            with BinaryProbeClient(server.host, server.port) as client:
                for k in mine:
                    want_value, want_moves = truths[k]
                    answer = client.best_move(boards[k])
                    assert answer["value"] == want_value
                    assert answer["pits"] == [m.pit for m in want_moves]

        run_threads(worker)
        cache = service.backend.cache
        resident = list(cache._blocks.values())
        assert cache.resident_bytes == sum(
            int(b.nbytes) for b, _ in resident
        )
