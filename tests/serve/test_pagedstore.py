"""Paged-store format tests: exact round-trips over three games, block
addressing, and the header/error contract."""

import json
import zlib

import numpy as np
import pytest

from repro.db.store import DatabaseSet
from repro.serve.pagedstore import SCHEMA, PagedStore, write_paged

from .conftest import BLOCK_POSITIONS, run_threads


@pytest.fixture()
def paged(solved, tmp_path):
    name, game, dbs = solved
    path = tmp_path / f"{name}.pgdb"
    summary = write_paged(dbs, path, block_positions=BLOCK_POSITIONS)
    return dbs, path, summary


class TestRoundTrip:
    def test_every_database_bit_identical(self, paged):
        dbs, path, _ = paged
        with PagedStore(path) as store:
            assert store.ids() == dbs.ids()
            for db_id in dbs.ids():
                np.testing.assert_array_equal(store.read_all(db_id), dbs[db_id])
                assert store.read_all(db_id).dtype == np.int16

    def test_metadata_survives(self, paged):
        dbs, path, summary = paged
        with PagedStore(path) as store:
            assert store.game_name == dbs.game_name
            assert store.rules == dbs.rules
            assert store.total_positions == dbs.total_positions
            assert store.block_positions == BLOCK_POSITIONS
        assert summary["positions"] == dbs.total_positions
        assert summary["stored_ratio"] > 1.0  # solved values compress well

    def test_single_block_is_the_right_slice(self, paged):
        dbs, path, _ = paged
        with PagedStore(path) as store:
            for db_id in dbs.ids():
                n_blocks = store.n_blocks(db_id)
                expected = -(-dbs[db_id].shape[0] // BLOCK_POSITIONS) or 1
                assert n_blocks == expected
                last = n_blocks - 1
                np.testing.assert_array_equal(
                    store.read_block(db_id, last),
                    dbs[db_id][last * BLOCK_POSITIONS :],
                )


    def test_reads_are_positional(self, paged):
        """``read_block`` neither moves nor depends on the handle's file
        offset, so threads share one store without a lock: every block,
        read from six threads at once in different orders, is right."""
        dbs, path, _ = paged
        with PagedStore(path) as store:
            blocks = [(db_id, b) for db_id in store.ids()
                      for b in range(store.n_blocks(db_id))]
            assert store.block_sizes(blocks[-1][0]) == [
                store.stored_block_bytes(blocks[-1][0], b)
                for b in range(store.n_blocks(blocks[-1][0]))
            ]

            def worker(i):
                rng = np.random.default_rng(i)
                for k in rng.permutation(len(blocks)):
                    db_id, b = blocks[k]
                    np.testing.assert_array_equal(
                        store.read_block(db_id, b),
                        dbs[db_id][b * BLOCK_POSITIONS:
                                   (b + 1) * BLOCK_POSITIONS],
                    )

            run_threads(worker)


class TestAddressing:
    def test_block_of(self, paged):
        _, path, _ = paged
        with PagedStore(path) as store:
            assert store.block_of(0) == 0
            assert store.block_of(BLOCK_POSITIONS - 1) == 0
            assert store.block_of(BLOCK_POSITIONS) == 1

    def test_out_of_range_block(self, paged):
        dbs, path, _ = paged
        with PagedStore(path) as store:
            top = dbs.ids()[-1]
            with pytest.raises(IndexError, match="out of range"):
                store.read_block(top, store.n_blocks(top))
            with pytest.raises(IndexError):
                store.read_block(top, -1)

    def test_missing_database(self, paged):
        _, path, _ = paged
        with PagedStore(path) as store:
            assert "nope" not in store
            with pytest.raises(KeyError, match="not present"):
                store.read_block("nope", 0)


class TestFormatContract:
    def test_bad_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.pgdb"
        bogus.write_bytes(b"NOTPAGED" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            PagedStore(bogus)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "schema.pgdb"
        header = json.dumps({"schema": "other/v9"}).encode()
        path.write_bytes(
            b"REPROPGD" + len(header).to_bytes(8, "little") + header
        )
        with pytest.raises(ValueError, match="schema"):
            PagedStore(path)

    def test_corrupt_block_detected(self, tmp_path):
        dbs = DatabaseSet(
            game_name="awari",
            values={0: np.arange(10, dtype=np.int16)},
        )
        path = tmp_path / "corrupt.pgdb"
        write_paged(dbs, path, block_positions=4)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a bit inside the last compressed block
        path.write_bytes(bytes(raw))
        with PagedStore(path) as store:
            with pytest.raises((zlib.error, IOError)):
                store.read_all(0)

    def test_truncated_file_is_a_short_read(self, tmp_path):
        dbs = DatabaseSet(
            game_name="awari",
            values={0: np.arange(10, dtype=np.int16)},
        )
        path = tmp_path / "short.pgdb"
        write_paged(dbs, path, block_positions=4, codec="raw")
        path.write_bytes(path.read_bytes()[:-1])
        with PagedStore(path) as store:
            np.testing.assert_array_equal(store.read_block(0, 0), [0, 1, 2, 3])
            with pytest.raises(IOError, match="short read"):
                store.read_block(0, 2)

    def test_bad_block_positions_rejected(self, tmp_path):
        dbs = DatabaseSet(game_name="awari", values={0: np.zeros(1, np.int16)})
        with pytest.raises(ValueError, match="block_positions"):
            write_paged(dbs, tmp_path / "x.pgdb", block_positions=0)

    def test_empty_database_roundtrips(self, tmp_path):
        dbs = DatabaseSet(
            game_name="synthetic",
            values={0: np.zeros(0, dtype=np.int16), 1: np.array([3], np.int16)},
        )
        path = tmp_path / "empty.pgdb"
        write_paged(dbs, path, block_positions=4)
        with PagedStore(path) as store:
            assert store.positions(0) == 0
            assert store.read_all(0).shape == (0,)
            np.testing.assert_array_equal(store.read_all(1), dbs[1])

    def test_string_ids_roundtrip(self, tmp_path):
        dbs = DatabaseSet(
            game_name="krk",
            values={"kqk": np.array([5], np.int16), "krk": np.array([7, 0], np.int16)},
        )
        path = tmp_path / "str.pgdb"
        write_paged(dbs, path, block_positions=4)
        with PagedStore(path) as store:
            assert store.ids() == ["kqk", "krk"]
            np.testing.assert_array_equal(store.read_all("krk"), dbs["krk"])

    def test_header_schema_field(self, paged):
        _, path, _ = paged
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16 : 16 + header_len].decode())
        assert header["schema"] == SCHEMA
        assert header["dtype"] == "<i2"
