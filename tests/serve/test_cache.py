"""BlockCache behaviour: LRU eviction order, byte-budget enforcement,
counters matching an oracle replay, and the obs gauge contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serve.cache import BlockCache


def _block(fill, n=16):
    return np.full(n, fill, dtype=np.int16)  # 32 bytes at n=16


def _loader(fill, n=16, log=None):
    def load():
        if log is not None:
            log.append(fill)
        return _block(fill, n)

    return load


class TestLRU:
    def test_hit_returns_cached_object(self):
        cache = BlockCache(1024)
        first = cache.get("a", _loader(1))
        again = cache.get("a", _loader(2))
        assert again is first
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = BlockCache(96)  # room for three 32-byte blocks
        for key in "abc":
            cache.get(key, _loader(ord(key)))
        cache.get("a", _loader(0))  # touch a: LRU order is now b, c, a
        cache.get("d", _loader(4))  # evicts b
        assert cache.keys() == ["c", "a", "d"]
        assert "b" not in cache
        assert cache.evictions == 1

    def test_eviction_order_cascades(self):
        cache = BlockCache(64)
        cache.get("a", _loader(1))
        cache.get("b", _loader(2))
        big = cache.get("big", lambda: np.zeros(32, np.int16))  # 64 bytes
        assert cache.keys() == ["big"]
        assert cache.evictions == 2
        assert big.nbytes == 64

    def test_reload_after_eviction(self):
        loads = []
        cache = BlockCache(32)
        cache.get("a", _loader(1, log=loads))
        cache.get("b", _loader(2, log=loads))
        cache.get("a", _loader(1, log=loads))
        assert loads == [1, 2, 1]
        assert cache.misses == 3 and cache.hits == 0


class TestBudget:
    def test_budget_enforced(self):
        cache = BlockCache(100)
        for key in range(20):
            cache.get(key, _loader(key))
            assert cache.resident_bytes <= 100
        assert len(cache) == 3  # 3 * 32 = 96 <= 100

    def test_single_oversized_block_stays(self):
        """A budget smaller than one block still serves that block —
        resident never exceeds budget + one block."""
        cache = BlockCache(16)
        block = cache.get("huge", lambda: np.zeros(64, np.int16))
        assert len(cache) == 1
        assert cache.resident_bytes == 128
        assert cache.peak_resident_bytes <= 16 + block.nbytes
        cache.get("next", lambda: np.zeros(64, np.int16))
        assert len(cache) == 1  # the old one was evicted, not the new one
        assert cache.keys() == ["next"]

    def test_zero_budget_always_reloads(self):
        loads = []
        cache = BlockCache(0)
        cache.get("a", _loader(1, log=loads))
        cache.get("a", _loader(1, log=loads))
        # One block may stay resident (the +1 slack) so the second get
        # can still hit; what matters is the bound.
        assert cache.resident_bytes <= 32
        assert cache.budget_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)


class TestOracleReplay:
    def test_counters_match_oracle(self):
        """Replay a seeded access sequence against a dict-based oracle LRU
        and require hit/miss/eviction counters to match exactly."""
        rng = np.random.default_rng(42)
        budget, block_bytes = 160, 32  # capacity: 5 blocks
        capacity = budget // block_bytes
        cache = BlockCache(budget)
        oracle: list = []  # LRU order, least recent first
        hits = misses = evictions = 0
        sequence = rng.integers(0, 12, size=500)
        for key in sequence:
            key = int(key)
            if key in oracle:
                hits += 1
                oracle.remove(key)
                oracle.append(key)
            else:
                misses += 1
                oracle.append(key)
                while len(oracle) > capacity:
                    oracle.pop(0)
                    evictions += 1
            cache.get(key, _loader(key))
        assert cache.hits == hits
        assert cache.misses == misses
        assert cache.evictions == evictions
        assert cache.keys() == oracle
        assert cache.hit_rate == pytest.approx(hits / 500)


class TestMetrics:
    def test_gauges_and_counters_exported(self):
        registry = MetricsRegistry()
        cache = BlockCache(64, metrics=registry.scoped("serve.cache"))
        cache.get("a", _loader(1))
        cache.get("a", _loader(1))
        cache.get("b", _loader(2))
        cache.get("c", _loader(3))
        counters = registry.counters
        assert counters["serve.cache.hits"] == cache.hits == 1
        assert counters["serve.cache.misses"] == cache.misses == 3
        assert counters["serve.cache.evictions"] == cache.evictions == 1
        gauges = registry.gauges
        assert gauges["serve.cache.resident_bytes"] == cache.resident_bytes
        assert gauges["serve.cache.resident_blocks"] == 2
        assert gauges["serve.cache.budget_bytes"] == 64
        assert (
            gauges["serve.cache.peak_resident_bytes"]
            == cache.peak_resident_bytes
        )

    def test_stats_dict(self):
        cache = BlockCache(64)
        cache.get("a", _loader(1))
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["resident_blocks"] == 1
        assert stats["budget_bytes"] == 64


class TestPut:
    def test_reinsertion_does_not_double_count(self):
        """put() of an existing key replaces the entry: resident_bytes
        reflects the new block only, no matter how often it is re-put."""
        cache = BlockCache(1024)
        for _ in range(5):
            cache.put("a", _block(1))
        assert cache.resident_bytes == 32
        assert len(cache) == 1

    def test_reinsertion_with_different_size_adjusts(self):
        cache = BlockCache(1024)
        cache.put("a", _block(1, n=16))  # 32 bytes
        cache.put("a", _block(1, n=64))  # 128 bytes
        assert cache.resident_bytes == 128
        cache.put("a", _block(1, n=8))  # 16 bytes
        assert cache.resident_bytes == 16

    def test_reinsertion_refreshes_lru_position(self):
        cache = BlockCache(96)
        for key in "abc":
            cache.put(key, _block(ord(key)))
        cache.put("a", _block(0))  # re-put moves a to most-recent
        cache.put("d", _block(4))  # evicts b, not a
        assert cache.keys() == ["c", "a", "d"]

    def test_miss_then_evict_under_packed_sizes(self):
        """The +one-block invariant with packed stored sizes: budget
        counts decompressed bytes, so tiny packed blocks that decode to
        full working blocks must still respect budget + one block."""
        cache = BlockCache(64)
        peak_bound = 64
        for key in range(10):
            block = _block(key, n=32)  # 64 working bytes, 16 "stored"
            cache.get(key, lambda b=block: b, stored_bytes=16)
            assert cache.resident_bytes <= peak_bound + block.nbytes
        assert cache.peak_resident_bytes <= peak_bound + 64

    def test_packed_resident_bytes_tracks_stored_sizes(self):
        registry = MetricsRegistry()
        cache = BlockCache(
            1024, metrics=registry.scoped("serve.cache")
        )
        cache.get("a", _loader(1), stored_bytes=8)
        cache.get("b", _loader(2), stored_bytes=8)
        assert cache.packed_resident_bytes == 16
        assert cache.resident_bytes == 64
        assert registry.gauges["serve.cache.packed_resident_bytes"] == 16
        # Replacement adjusts, eviction releases.
        cache.put("a", _block(1), stored_bytes=10)
        assert cache.packed_resident_bytes == 18
        cache.clear()
        assert cache.packed_resident_bytes == 0
        assert cache.stats()["packed_resident_bytes"] == 0

    def test_callable_stored_bytes_runs_only_on_a_miss(self):
        """The paged backend hands the stored size over as a callable:
        a hit must not pay for it, a miss accounts what it returns."""
        cache = BlockCache(1024)
        asked = []

        def stored():
            asked.append(True)
            return 8

        cache.get("a", _loader(1), stored_bytes=stored)
        assert asked == [True] and cache.packed_resident_bytes == 8
        cache.get("a", _loader(1), stored_bytes=stored)
        assert asked == [True] and cache.hits == 1

    def test_packed_resident_defaults_to_working_bytes(self):
        cache = BlockCache(1024)
        cache.get("a", _loader(1))  # no stored_bytes: raw parity
        assert cache.packed_resident_bytes == cache.resident_bytes

    def test_eviction_releases_stored_bytes(self):
        cache = BlockCache(64)  # two 32-byte blocks
        cache.get("a", _loader(1), stored_bytes=4)
        cache.get("b", _loader(2), stored_bytes=4)
        cache.get("c", _loader(3), stored_bytes=4)  # evicts a
        assert cache.evictions == 1
        assert cache.packed_resident_bytes == 8


class TestGetMany:
    """``get_many(keys)`` is ``[get(k) for k in keys]`` under one lock."""

    @settings(max_examples=200, deadline=None)
    @given(
        budget=st.sampled_from([0, 8, 31, 32, 64, 100, 160, 10_000]),
        batches=st.lists(
            st.lists(st.integers(0, 9), max_size=12), min_size=1, max_size=6
        ),
        with_stored=st.booleans(),
    )
    def test_equals_sequential_gets_on_a_twin(
        self, budget, batches, with_stored
    ):
        """Random keys with repeats, block sizes that vary by key and
        budgets from 0 through "less than one block" to "everything
        fits": same objects, same LRU order, same counters."""
        blocks = {key: _block(key, n=4 * (1 + key % 4)) for key in range(10)}
        asked = {"many": [], "one": []}

        def stored(side, key):
            asked[side].append(key)
            return 3 + key

        registry = MetricsRegistry()
        many = BlockCache(budget, metrics=registry.scoped("serve.cache"))
        one = BlockCache(budget)
        for keys in batches:
            got = many.get_many(
                keys, blocks.__getitem__,
                (lambda k: stored("many", k)) if with_stored else None,
            )
            want = [
                one.get(
                    k, lambda k=k: blocks[k],
                    (lambda k=k: stored("one", k)) if with_stored else None,
                )
                for k in keys
            ]
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))
            assert many.keys() == one.keys()
            assert many.stats() == one.stats()
        # The stored size is asked for on misses only, in miss order.
        assert asked["many"] == asked["one"]
        assert len(asked["many"]) == (many.misses if with_stored else 0)
        counters = registry.counters
        assert counters.get("serve.cache.hits", 0) == many.hits
        assert counters.get("serve.cache.misses", 0) == many.misses
        assert counters.get("serve.cache.evictions", 0) == many.evictions
        gauges = registry.gauges
        assert gauges["serve.cache.resident_bytes"] == many.resident_bytes
        assert gauges["serve.cache.resident_blocks"] == len(many)

    def test_a_failed_load_keeps_the_keys_before_it_counted(self):
        """As with sequential gets: the lookups before the failure
        happened and are counted, the failed one is a counted miss that
        inserted nothing, and the lock is free again."""
        cache = BlockCache(1024)
        cache.put("a", _block(1))

        def load(key):
            if key == "bad":
                raise IOError("no such block")
            return _block(2)

        with pytest.raises(IOError):
            cache.get_many(["a", "b", "bad", "c"], load)
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.keys() == ["a", "b"]
        assert cache.get_many(["a"], load)[0] is cache.get("a", None)
