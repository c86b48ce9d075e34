"""Differential identity suite for the binary serving stack.

The whole correctness claim of :mod:`repro.aserve` is *identity*: the
binary TCP transport (plain and pipelined) and the zero-copy mmap local
path must both be bit-identical
to the in-memory ``DatabaseSet`` oracle they serve — values, depth
contract, metadata, and best moves — for every position of every game
in the fixture grid (awari, kalah, synthetic).
"""

import numpy as np
import pytest

from repro.aserve import connect
from repro.aserve.client import BinaryProbeClient
from repro.aserve.local import LocalProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.db.query import best_moves
from repro.obs import MetricsRegistry
from repro.serve.client import ProbeError
from repro.serve.pagedstore import write_paged
from repro.serve.service import ProbeService

from .conftest import BLOCK_POSITIONS, SMALL_BUDGET


@pytest.fixture(scope="module")
def binary_server(solved, paged_path):
    """(name, game, dbs, live AsyncProbeServer) over the paged backend
    with a deliberately tiny cache, so every sweep crosses blocks."""
    name, game, dbs = solved
    service = ProbeService.from_paged(paged_path, cache_bytes=SMALL_BUDGET)
    server = AsyncProbeServer(service).start()
    yield name, game, dbs, server
    server.shutdown()
    service.close()


@pytest.fixture(scope="module")
def binary_client(binary_server):
    """One pipelined client shared by the module's read-only tests."""
    _, _, _, server = binary_server
    with BinaryProbeClient(server.host, server.port) as client:
        yield client


def all_positions(dbs, seed=29):
    """Every (db, index) pair of the oracle, shuffled across databases."""
    rng = np.random.default_rng(seed)
    pairs = [
        (db_id, i)
        for db_id in dbs.ids()
        for i in range(dbs[db_id].shape[0])
    ]
    rng.shuffle(pairs)
    return pairs


def oracle_values(dbs, pairs) -> np.ndarray:
    return np.array([int(dbs[d][i]) for d, i in pairs], dtype=np.int16)


class TestBinaryIdentity:
    def test_every_position_bit_identical(self, binary_server, binary_client):
        """Exhaustive: all positions of all databases over binary TCP."""
        name, game, dbs, server = binary_server
        for db_id in dbs.ids():
            n = dbs[db_id].shape[0]
            got = binary_client.probe_many([(db_id, i) for i in range(n)])
            np.testing.assert_array_equal(
                got, dbs[db_id], err_msg=f"{name} db {db_id}"
            )

    def test_shuffled_cross_database_batch(self, binary_server, binary_client):
        name, game, dbs, server = binary_server
        pairs = all_positions(dbs)
        np.testing.assert_array_equal(
            binary_client.probe_many(pairs), oracle_values(dbs, pairs),
            err_msg=name,
        )

    def test_pipelined_batches_bit_identical(self, binary_server,
                                             binary_client):
        """Many batches in flight on one connection: answers land on the
        right futures in the right order."""
        name, game, dbs, server = binary_server
        pairs = all_positions(dbs, seed=31)
        batches = [pairs[i : i + 48] for i in range(0, len(pairs), 48)]
        results = binary_client.pipeline(batches)
        assert len(results) == len(batches)
        for batch, got in zip(batches, results):
            np.testing.assert_array_equal(
                got, oracle_values(dbs, batch), err_msg=name
            )

    def test_probe_packed_parallel_arrays(self, binary_server, binary_client):
        """The zero-Python-per-probe encoding answers the same values as
        the pair-list path."""
        name, game, dbs, server = binary_server
        directory = dbs.ids()
        rng = np.random.default_rng(41)
        slots = rng.integers(0, len(directory), size=400).astype(np.uint16)
        indices = np.array(
            [
                int(rng.integers(0, dbs[directory[s]].shape[0]))
                for s in slots
            ],
            dtype=np.int64,
        )
        got = binary_client.probe_packed(directory, slots, indices)
        want = np.array(
            [int(dbs[directory[s]][i]) for s, i in zip(slots, indices)],
            dtype=np.int16,
        )
        np.testing.assert_array_equal(got, want, err_msg=name)

    def test_single_probe_matches(self, binary_server, binary_client):
        name, game, dbs, server = binary_server
        for db_id in dbs.ids():
            n = dbs[db_id].shape[0]
            for index in (0, n // 2, n - 1):
                assert binary_client.probe(db_id, index) == int(
                    dbs[db_id][index]
                ), f"{name} db {db_id} index {index}"

    def test_depth_contract_matches_json(self, binary_server, binary_client):
        """A paged backend serves no depths: depth_of answers None over
        binary, as the paged backend does in process."""
        name, game, dbs, server = binary_server
        assert binary_client.depth_of(dbs.ids()[0], 0) is None

    def test_empty_batch(self, binary_server, binary_client):
        assert binary_client.probe_many([]).shape == (0,)


class TestMetadataParity:
    def test_catalog_matches_oracle(self, binary_server, binary_client):
        name, game, dbs, server = binary_server
        assert binary_client.game_name == dbs.game_name
        assert binary_client.rules == dbs.rules
        assert binary_client.ids() == dbs.ids()
        for db_id in dbs.ids():
            assert db_id in binary_client
            assert binary_client.positions(db_id) == dbs[db_id].shape[0]
        assert max(dbs.ids()) + 40 not in binary_client

    def test_stats_round_trip(self, binary_server, binary_client):
        stats = binary_client.stats()
        assert stats["backend"] == "paged"

    def test_errors_surface_as_probe_errors(self, binary_server,
                                            binary_client):
        """Missing databases and bad indexes come back as error frames,
        raised client-side as ProbeError — and the connection (with its
        pipelined stream) survives to answer the next request."""
        name, game, dbs, server = binary_server
        top = dbs.ids()[-1]
        with pytest.raises(ProbeError, match="not present"):
            binary_client.probe(max(dbs.ids()) + 40, 0)
        with pytest.raises(ProbeError, match="out of range"):
            binary_client.probe(top, dbs[top].shape[0])
        assert binary_client.probe(top, 0) == int(dbs[top][0])


class TestBestMoves:
    def test_best_move_matches_oracle(self, binary_server, binary_client):
        """Server-side best moves over binary equal the in-memory query
        path on a board sample (synthetic has no board surface)."""
        name, game, dbs, server = binary_server
        if name == "synthetic":
            pytest.skip("synthetic game is not board-based")
        indexer = game.engine.indexer(max(dbs.ids()))
        rng = np.random.default_rng(23)
        for idx in rng.integers(0, indexer.count, size=8):
            board = indexer.unrank(np.array([int(idx)]))[0]
            want_value, want_moves = best_moves(game, dbs, board)
            got = binary_client.best_move(board)
            assert got["value"] == want_value, f"{name} idx {idx}"
            assert got["pits"] == [m.pit for m in want_moves], (
                f"{name} idx {idx}"
            )


@pytest.fixture(
    scope="module", params=["zlib", "raw", "packed", "packed+zlib"]
)
def local_store(request, solved, tmp_path_factory):
    """(name, game, dbs, codec, path) — one paged store per codec."""
    name, game, dbs = solved
    codec = request.param
    path = tmp_path_factory.mktemp(f"mmap-{name}-{codec}") / "store.pgdb"
    write_paged(dbs, path, block_positions=BLOCK_POSITIONS, codec=codec)
    return name, game, dbs, codec, path


class TestLocalMmap:
    def test_every_position_bit_identical(self, local_store):
        name, game, dbs, codec, path = local_store
        with LocalProbeClient(path) as client:
            for db_id in dbs.ids():
                n = dbs[db_id].shape[0]
                got = client.probe_many([(db_id, i) for i in range(n)])
                np.testing.assert_array_equal(
                    got, dbs[db_id], err_msg=f"{name}/{codec} db {db_id}"
                )

    def test_shuffled_batch_and_array_path(self, local_store):
        name, game, dbs, codec, path = local_store
        pairs = all_positions(dbs, seed=43)
        registry = MetricsRegistry()
        with LocalProbeClient(
            path, metrics=registry.scoped("aserve.local")
        ) as client:
            np.testing.assert_array_equal(
                client.probe_many(pairs), oracle_values(dbs, pairs),
                err_msg=f"{name}/{codec}",
            )
            db_id = dbs.ids()[-1]
            idx = np.arange(dbs[db_id].shape[0], dtype=np.int64)[::-1].copy()
            np.testing.assert_array_equal(
                client.probe_array(db_id, idx), dbs[db_id][idx]
            )
            assert client.probe(db_id, 0) == int(dbs[db_id][0])
        assert registry.counters["aserve.local.batches"] == 2
        assert registry.counters["aserve.local.probes"] == \
            len(pairs) + len(idx) + 1

    def test_metadata_and_errors(self, local_store):
        name, game, dbs, codec, path = local_store
        with LocalProbeClient(path) as client:
            assert client.ping()
            assert client.game_name == dbs.game_name
            assert client.rules == dbs.rules
            assert client.ids() == dbs.ids()
            assert client.depth_of(dbs.ids()[0], 0) is None
            assert client.stats()["codec"] == codec
            top = dbs.ids()[-1]
            with pytest.raises(IndexError, match="out of range"):
                client.probe(top, dbs[top].shape[0])
            with pytest.raises(KeyError):
                client.probe(max(dbs.ids()) + 40, 0)
            # A mixed batch is refused whole, naming the offender as
            # the scalar probe does.
            with pytest.raises(IndexError) as refused:
                client.probe_many([(dbs.ids()[0], 0), (top, -1)])
            assert str(refused.value) == (
                f"index -1 out of range for db {top!r} "
                f"({dbs[top].shape[0]} positions)"
            )

    def test_fast_path_mode_per_codec(self, local_store):
        """raw maps zero-copy, packed bulk-unpacks once, the zlib-family
        codecs fall back to the block cache with a counted reason."""
        name, game, dbs, codec, path = local_store
        registry = MetricsRegistry()
        with LocalProbeClient(
            path, metrics=registry.scoped("aserve.local")
        ) as client:
            stats = client.stats()
            if codec == "raw":
                assert client.mode == "zero-copy"
                assert "fallback_reason" not in stats
            elif codec == "packed":
                assert client.mode == "unpacked"
                assert "fallback_reason" not in stats
                total = 2 * dbs.total_positions
                assert stats["unpacked_bytes"] == total
                assert (
                    registry.gauges["aserve.local.unpacked_bytes"] == total
                )
            else:
                assert client.mode == "block-cache"
                assert codec in stats["fallback_reason"]
                assert (
                    registry.counters["aserve.local.mmap_fallbacks"] == 1
                )
            assert stats["mode"] == client.mode

    def test_best_moves_match_oracle(self, local_store):
        name, game, dbs, codec, path = local_store
        if name == "synthetic":
            pytest.skip("synthetic game is not board-based")
        indexer = game.engine.indexer(max(dbs.ids()))
        rng = np.random.default_rng(47)
        registry = MetricsRegistry()
        with LocalProbeClient(
            path, metrics=registry.scoped("aserve.local")
        ) as client:
            for idx in rng.integers(0, indexer.count, size=6):
                board = indexer.unrank(np.array([int(idx)]))[0]
                want_value, want_moves = best_moves(game, dbs, board)
                got_value, got_moves = client.best_moves(board)
                assert got_value == want_value, f"{name}/{codec} idx {idx}"
                assert [m.pit for m in got_moves] == [
                    m.pit for m in want_moves
                ], f"{name}/{codec} idx {idx}"
        assert registry.counters["aserve.local.best_move_queries"] == 6


class TestConnectHelper:
    def test_local_path_selects_mmap(self, local_store):
        name, game, dbs, codec, path = local_store
        with connect(path) as client:
            assert isinstance(client, LocalProbeClient)
            assert client.probe(dbs.ids()[0], 0) == int(dbs[dbs.ids()[0]][0])

    def test_host_port_selects_binary(self, binary_server):
        name, game, dbs, server = binary_server
        with connect(f"{server.host}:{server.port}") as client:
            assert isinstance(client, BinaryProbeClient)
            assert client.ping()

    def test_garbage_endpoint_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            connect("no-such-file-or-host-port")
