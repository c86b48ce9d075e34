"""ProbeService tests.

The load-bearing one is the differential suite: for every game
(awari, kalah, synthetic), probing every position through both backends
— in-memory and paged, the latter with a cache budget smaller than one
database — must return values bit-identical to direct array indexing.
All stores come from the session-wide workloads in
:mod:`tests.workloads` (solved once, paged once).
"""

import numpy as np
import pytest

from repro.db.query import best_moves, evaluate_moves, optimal_line
from repro.db.search import DatabaseProbingSearch
from repro.obs import MetricsRegistry
from repro.serve.cache import BlockCache
from repro.db.store import DatabaseSet
from repro.serve.pagedstore import CODECS, PagedStore, write_paged
from repro.serve.service import (
    MemoryBackend,
    PagedBackend,
    ProbeService,
    split_positions,
)

from .conftest import (
    BLOCK_POSITIONS,
    SMALL_BUDGET,
    make_service,
    paged_store_path,
)


class TestDifferential:
    def test_every_position_bit_identical(self, solved, paged_path):
        name, game, dbs = solved
        largest = max(dbs[i].nbytes for i in dbs.ids())
        budget = min(SMALL_BUDGET, largest // 2)
        assert budget < largest, "cache budget must not fit one database"
        for kind in ("memory", "paged"):
            service = make_service(kind, dbs, paged_path, cache_bytes=budget)
            for db_id in dbs.ids():
                n = dbs[db_id].shape[0]
                got = service.probe_many([(db_id, i) for i in range(n)])
                np.testing.assert_array_equal(
                    got, dbs[db_id],
                    err_msg=f"{kind} backend diverges on {name} db {db_id}",
                )
            service.close()

    def test_shuffled_batch_order_preserved(self, solved, backend_service):
        """Locality sorting must not leak into the result order."""
        name, game, dbs = solved
        kind, service = backend_service
        rng = np.random.default_rng(3)
        pairs = [
            (db_id, int(i))
            for db_id in dbs.ids()
            for i in rng.integers(0, dbs[db_id].shape[0], size=40)
        ]
        rng.shuffle(pairs)
        expected = np.array([int(dbs[d][i]) for d, i in pairs], dtype=np.int16)
        np.testing.assert_array_equal(
            service.probe_many(pairs), expected, err_msg=kind
        )

    def test_single_probe_matches(self, solved, backend_service):
        name, game, dbs = solved
        kind, service = backend_service
        top = dbs.ids()[-1]
        mid = dbs[top].shape[0] // 2
        assert service.probe(top, mid) == int(dbs[top][mid]), kind


def scrambled_pairs(dbs, seed, per_db=40):
    """A shuffled cross-database batch with duplicates in it."""
    rng = np.random.default_rng(seed)
    pairs = [
        (db_id, int(i))
        for db_id in dbs.ids()
        for i in rng.integers(0, dbs[db_id].shape[0], size=per_db)
    ]
    pairs += pairs[::7]
    rng.shuffle(pairs)
    return pairs


@pytest.fixture(params=["memory", *CODECS])
def any_service(request, solved, tmp_path_factory):
    """A service over the memory backend or a paged store of one of the
    four codecs, cache far smaller than the store."""
    name, _, dbs = solved
    if request.param == "memory":
        service = ProbeService.from_database_set(dbs)
    else:
        service = ProbeService.from_paged(
            paged_store_path(name, tmp_path_factory, codec=request.param),
            cache_bytes=SMALL_BUDGET,
        )
    with service:
        yield service


class TestBatchPathsAgree:
    """``probe_many(list)`` is ``probe_packed`` after one split, and
    both are one ``probe`` per position."""

    def test_list_packed_and_scalar_paths_agree(self, solved, any_service):
        _, _, dbs = solved
        pairs = scrambled_pairs(dbs, seed=13)
        one_by_one = [any_service.probe(d, i) for d, i in pairs]
        assert one_by_one == [int(dbs[d][i]) for d, i in pairs]
        listed = any_service.probe_many(pairs)
        packed = any_service.probe_packed(*split_positions(pairs))
        assert listed.dtype == packed.dtype == np.int16
        assert listed.tolist() == packed.tolist() == one_by_one
        # An iterator is as good as a list.
        assert any_service.probe_many(iter(pairs)).tolist() == one_by_one

    def test_empty_single_and_duplicate_batches(self, solved, any_service):
        _, _, dbs = solved
        top = dbs.ids()[-1]
        last = dbs[top].shape[0] - 1
        assert any_service.probe_many([]).shape == (0,)
        assert any_service.probe_packed(*split_positions([])).shape == (0,)
        assert any_service.probe_many([(top, last)]).tolist() == [
            int(dbs[top][last])
        ]
        repeated = [(top, last), (top, 0), (top, last), (top, last)]
        assert any_service.probe_many(repeated).tolist() == [
            int(dbs[d][i]) for d, i in repeated
        ]

    def test_string_database_ids(self, solved, tmp_path):
        """Ids that are text split, group and gather like the integer
        ones."""
        _, _, dbs = solved
        named = DatabaseSet(
            game_name=dbs.game_name, rules=dbs.rules,
            values={f"level-{i}": dbs[i] for i in dbs.ids()},
        )
        path = tmp_path / "named.pgdb"
        write_paged(named, path, block_positions=BLOCK_POSITIONS)
        pairs = scrambled_pairs(named, seed=17, per_db=25)
        expected = [int(named[d][i]) for d, i in pairs]
        for service in (
            ProbeService.from_database_set(named),
            ProbeService.from_paged(path, cache_bytes=SMALL_BUDGET),
        ):
            with service:
                assert service.probe_many(pairs).tolist() == expected
                assert service.probe_packed(
                    *split_positions(pairs)
                ).tolist() == expected
                assert [
                    service.probe(d, i) for d, i in pairs
                ] == expected

    def test_gather_packed_is_one_scalar_probe_per_position(
        self, solved, any_service
    ):
        """The backend's batch gather on an awkward batch — mixed
        databases, unsorted, duplicates, first and last position of
        every database (the short tail blocks), and wire-width ``<u2``
        slots behind enough unreferenced directory entries that
        ``slot * stride`` in that width would wrap — equals one scalar
        ``probe`` per position, for one cache lookup per distinct
        (database, block)."""
        _, _, dbs = solved
        pairs = scrambled_pairs(dbs, seed=29, per_db=20)
        for db_id in dbs.ids():
            pairs += [(db_id, 0), (db_id, dbs[db_id].shape[0] - 1)]
        expected = [any_service.probe(d, i) for d, i in pairs]
        assert expected == [int(dbs[d][i]) for d, i in pairs]
        directory, slots, indices = split_positions(pairs)
        padding = [f"absent-{n}" for n in range(40_000)]
        wire_slots = (slots + len(padding)).astype("<u2")
        backend = any_service.backend
        cache = getattr(backend, "cache", None)
        before = cache.hits + cache.misses if cache else 0
        got = backend.gather_packed(padding + directory, wire_slots, indices)
        assert got.dtype == np.int16 and got.tolist() == expected
        if cache:
            distinct = {(d, i // BLOCK_POSITIONS) for d, i in pairs}
            assert cache.hits + cache.misses - before == len(distinct)
        # The same through the service, and the degenerate batches.
        assert any_service.probe_packed(
            padding + directory, wire_slots, indices
        ).tolist() == expected
        for count in (0, 1):
            assert backend.gather_packed(
                padding + directory, wire_slots[:count], indices[:count]
            ).tolist() == expected[:count]

    def test_one_cache_lookup_per_distinct_block(
        self, awari_solved, awari_paged_path
    ):
        """However scrambled and repetitive the batch, the paged backend
        asks the cache once per distinct (database, block) in it."""
        _, dbs = awari_solved
        with ProbeService.from_paged(awari_paged_path) as service:
            cache = service.backend.cache
            for seed in range(5):
                pairs = scrambled_pairs(dbs, seed=seed)
                distinct = {(d, i // BLOCK_POSITIONS) for d, i in pairs}
                for ask in (
                    lambda: service.probe_many(pairs),
                    lambda: service.probe_packed(*split_positions(pairs)),
                ):
                    before = cache.hits + cache.misses
                    ask()
                    assert cache.hits + cache.misses - before == len(distinct)


class TestResidentBytes:
    def test_probe_sweep_stays_under_budget_plus_one_block(
        self, awari_solved, awari_paged_path
    ):
        """Acceptance: a full probe sweep through the paged backend keeps
        the cache's own resident-bytes gauge under budget + one block."""
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service = make_service(
            "paged", dbs, awari_paged_path, metrics=registry.scoped("serve")
        )
        block_bytes = BLOCK_POSITIONS * 2  # int16
        rng = np.random.default_rng(11)
        for db_id in dbs.ids():
            n = dbs[db_id].shape[0]
            service.probe_many(
                [(db_id, int(i)) for i in rng.integers(0, n, size=2 * n)]
            )
        cache = service.backend.cache
        assert cache.misses > 0 and cache.evictions > 0
        gauges = registry.gauges
        assert (
            gauges["serve.cache.peak_resident_bytes"]
            == cache.peak_resident_bytes
        )
        assert cache.peak_resident_bytes <= SMALL_BUDGET + block_bytes
        assert gauges["serve.cache.resident_bytes"] <= SMALL_BUDGET
        service.close()

    def test_locality_sort_bounds_block_loads(
        self, awari_solved, awari_paged_path
    ):
        """A batch confined to one database loads each block at most
        once, no matter how scrambled the request order is."""
        game, dbs = awari_solved
        top = dbs.ids()[-1]
        n = dbs[top].shape[0]
        cache = BlockCache(2 * BLOCK_POSITIONS * 2)  # two blocks only
        service = ProbeService(
            PagedBackend(PagedStore(awari_paged_path), cache)
        )
        rng = np.random.default_rng(5)
        order = rng.permutation(n)
        service.probe_many([(top, int(i)) for i in order])
        n_blocks = service.backend.store.n_blocks(top)
        assert n_blocks > 2  # budget genuinely smaller than the database
        assert cache.misses == n_blocks
        service.close()


class TestWindowedCachePass:
    def test_no_window_exceeds_the_budget(self, awari_solved, awari_paged_path):
        """A batch over far more blocks than the cache holds is walked
        in windows of at most ``budget // block`` blocks: the request
        never pins more decoded blocks than the budget, and the cache
        keeps its budget-plus-one-block bound."""
        _, dbs = awari_solved
        block_bytes = BLOCK_POSITIONS * 2
        cache = BlockCache(2 * block_bytes)
        handed = []
        get_many = cache.get_many

        def spy(keys, *args):
            handed.append(len(keys))
            return get_many(keys, *args)

        cache.get_many = spy
        top = dbs.ids()[-1]
        n = dbs[top].shape[0]
        with ProbeService(
            PagedBackend(PagedStore(awari_paged_path), cache)
        ) as service:
            n_blocks = service.backend.store.n_blocks(top)
            assert n_blocks > 50
            indices = np.random.default_rng(31).permutation(n)
            got = service.probe_array(top, indices)
        np.testing.assert_array_equal(got, dbs[top][indices])
        assert sum(handed) == n_blocks == cache.misses
        assert max(handed) <= 2 and len(handed) == -(-n_blocks // 2)
        assert cache.peak_resident_bytes <= 2 * block_bytes + block_bytes

    def test_budget_below_one_block_walks_block_by_block(
        self, awari_solved, awari_paged_path
    ):
        _, dbs = awari_solved
        pairs = scrambled_pairs(dbs, seed=37)
        with ProbeService.from_paged(awari_paged_path, cache_bytes=0) as service:
            got = service.probe_many(pairs)
            cache = service.backend.cache
            assert got.tolist() == [int(dbs[d][i]) for d, i in pairs]
            # The newest block is never evicted, so one stays resident
            # while the next one loads: two blocks at the peak.
            assert len(cache) == 1
            assert cache.peak_resident_bytes <= 2 * (2 * BLOCK_POSITIONS)


class TestBestMoves:
    def test_paths_cannot_disagree(self, awari_solved, awari_paged_path):
        """Serving best-move answers equal the in-memory query path on a
        sample of boards (shared successor resolution + shared logic)."""
        game, dbs = awari_solved
        registries = {kind: MetricsRegistry() for kind in ("memory", "paged")}
        services = {
            kind: make_service(kind, dbs, awari_paged_path,
                               metrics=registry.scoped("serve"))
            for kind, registry in registries.items()
        }
        indexer = game.engine.indexer(5)
        rng = np.random.default_rng(2)
        for idx in rng.integers(0, indexer.count, size=25):
            board = indexer.unrank(np.array([int(idx)]))[0]
            want_value, want_moves = best_moves(game, dbs, board)
            for kind, service in services.items():
                got_value, got_moves = service.best_moves(board)
                assert got_value == want_value, kind
                assert [m.pit for m in got_moves] == [
                    m.pit for m in want_moves
                ], kind
        for service in services.values():
            service.close()
        for kind, registry in registries.items():
            assert registry.counters["serve.best_move_queries"] == 25, kind

    def test_game_reconstructed_from_metadata(
        self, awari_solved, awari_paged_path
    ):
        game, dbs = awari_solved
        service = make_service("paged", dbs, awari_paged_path)
        assert service.game.rules.describe() == game.rules.describe()
        service.close()

    def test_optimal_line_over_probe_service(
        self, awari_solved, awari_paged_path
    ):
        game, dbs = awari_solved
        service = make_service("paged", dbs, awari_paged_path)
        indexer = game.engine.indexer(5)
        rng = np.random.default_rng(9)
        for idx in rng.integers(0, indexer.count, size=5):
            board = indexer.unrank(np.array([int(idx)]))[0]
            realized, _ = optimal_line(game, service, board)
            assert realized == int(dbs[5][int(idx)])
        service.close()

    def test_evaluate_moves_depths(self, awari_solved, awari_paged_path):
        """The paged path reports no depths (not served), the memory path
        keeps whatever the DatabaseSet holds."""
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service = make_service("paged", dbs, awari_paged_path,
                               metrics=registry.scoped("serve"))
        board = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0], dtype=np.int16)
        for ev in service.evaluate_moves(board):
            assert ev.successor_depth in (None, 0)
        service.close()
        assert registry.counters["serve.best_move_queries"] == 1


class TestSearchIntegration:
    def test_search_over_paged_store_matches_memory(
        self, awari_solved, tmp_path
    ):
        """DatabaseProbingSearch over a paged ProbeService (partial
        databases, tiny cache) agrees with the in-memory search."""
        game, dbs = awari_solved
        from repro.db.store import DatabaseSet

        partial = DatabaseSet(
            game_name=dbs.game_name,
            values={i: dbs.values[i] for i in range(5)},
            rules=dbs.rules,
        )
        path = tmp_path / "partial.pgdb"
        write_paged(partial, path, block_positions=BLOCK_POSITIONS)
        service = ProbeService.from_paged(path, cache_bytes=SMALL_BUDGET)
        indexer = game.engine.indexer(5)
        rng = np.random.default_rng(4)
        checked = 0
        for idx in rng.integers(0, indexer.count, size=8):
            board = indexer.unrank(np.array([int(idx)]))[0]
            mem = DatabaseProbingSearch(game, partial, max_depth=16).solve(board)
            paged = DatabaseProbingSearch(game, service, max_depth=16).solve(board)
            assert paged.exact == mem.exact
            if mem.exact:
                assert paged.value == mem.value == int(dbs[5][int(idx)])
                checked += 1
        assert checked >= 1
        service.close()


class TestErrors:
    def test_index_out_of_range(self, awari_solved, awari_paged_path):
        game, dbs = awari_solved
        for kind in ("memory", "paged"):
            service = make_service(kind, dbs, awari_paged_path)
            with pytest.raises(IndexError, match="out of range"):
                service.probe(5, dbs[5].shape[0])
            with pytest.raises(IndexError):
                service.probe_many([(5, 0), (5, -1)])
            service.close()

    def test_missing_database(self, awari_solved, awari_paged_path):
        game, dbs = awari_solved
        for kind in ("memory", "paged"):
            service = make_service(kind, dbs, awari_paged_path)
            assert 99 not in service
            with pytest.raises(KeyError):
                service.probe(99, 0)
            service.close()

    def test_refused_batch_names_what_the_scalar_path_names(
        self, awari_solved, awari_paged_path
    ):
        """A batch is validated whole, in slot order, with the scalar
        path's own errors: the first offending database is named, and a
        paged cache is left exactly as it was — no block of the valid
        databases ahead of the bad one was loaded or evicted."""
        _, dbs = awari_solved
        size = {d: dbs[d].shape[0] for d in dbs.ids()}
        good = [(3, i) for i in range(0, size[3], 7)]
        refused = [
            # (batch, error, message)
            (good + [(5, 1), (5, size[5])], IndexError,
             f"index {size[5]} out of range for db 5 ({size[5]} positions)"),
            (good + [(5, -1), (4, size[4] + 9)], IndexError,
             f"index -1 out of range for db 5 ({size[5]} positions)"),
            (good + [(5, size[5] + 1), (99, 0)], IndexError,
             f"index {size[5] + 1} out of range for db 5 "
             f"({size[5]} positions)"),
        ]
        for kind in ("memory", "paged"):
            with make_service(kind, dbs, awari_paged_path) as service:
                with pytest.raises(KeyError) as unknown:
                    service.probe(99, 0)
                refused_here = refused + [
                    (good + [(99, 0), (5, -1)], KeyError,
                     str(unknown.value)),
                ]
                service.probe_many(good)  # something resident to lose
                cache = getattr(service.backend, "cache", None)
                before = (cache.stats(), cache.keys()) if cache else None
                for batch, error, message in refused_here:
                    with pytest.raises(error) as caught:
                        service.probe_many(batch)
                    assert str(caught.value) == message, kind
                directory, slots, indices = split_positions(good)
                for bad_slots in (slots + 1, slots - 1):
                    with pytest.raises(KeyError, match="beyond the directory"):
                        service.probe_packed(directory, bad_slots, indices)
                if cache:
                    assert (cache.stats(), cache.keys()) == before, kind
                # An unknown id nobody references is never looked up.
                assert service.probe_packed(
                    [*directory, 99], slots, indices
                ).tolist() == [int(dbs[d][i]) for d, i in good]

    def test_empty_batch(self, awari_solved, awari_paged_path):
        game, dbs = awari_solved
        service = make_service("memory", dbs, awari_paged_path)
        assert service.probe_many([]).shape == (0,)
        service.close()


class TestMemoryBackendParity:
    def test_metadata_and_depths(self, awari_solved):
        game, dbs = awari_solved
        service = ProbeService.from_database_set(dbs)
        assert service.game_name == dbs.game_name
        assert service.rules == dbs.rules
        assert service.ids() == dbs.ids()
        assert service.positions(5) == dbs[5].shape[0]
        assert service.backend_kind == "memory"
        assert service.depth_of(5, 0) is None  # fixture has no depths
        assert isinstance(service.backend, MemoryBackend)
        assert service.stats()["backend"] == "memory"
