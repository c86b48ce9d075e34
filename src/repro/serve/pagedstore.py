"""Paged on-disk database format with O(1) random block access.

The ``.npz`` archives load *whole databases* into RAM — exactly the
uniprocessor memory wall the paper measures (>600 MB for the database it
could not build).  The paged format stores each database as fixed-size
runs of positions ("blocks"), each encoded independently, behind a JSON
header that records every block's file offset.  Probing one position
costs one seek plus one block decode, never a full-file decode, so a
server can answer queries from databases far larger than its memory
budget (the cache layer on top is
:class:`~repro.serve.cache.BlockCache`).

File layout::

    8 bytes   magic  b"REPROPGD"
    8 bytes   header length (little-endian uint64)
    N bytes   JSON header (utf-8)
    ...       concatenated encoded blocks

Header schema ``repro/paged-store/v1``: game name, rule string, block
size in positions, value dtype, codec (plus the bit-pack parameters for
the packed codecs), and per-database block tables (``offset`` relative
to the end of the header, stored length, position count).  Database ids
are encoded as strings and parsed back with the same rule as
:class:`~repro.db.store.DatabaseSet`.

Per-block codecs (``CODECS``):

* ``zlib`` — each block zlib-compressed (the default);
* ``raw`` — bare little-endian int16 bytes, mmap-able zero-copy;
* ``packed`` — the arbitrary-bit-width codec of
  :mod:`repro.db.packing`: values biased and packed ``bits`` per value
  (bound-derived, recorded in the header), ``ceil(n*bits/8)`` bytes per
  block — 4-8x smaller than raw for nibble-width games, decode is a
  bulk numpy unpack;
* ``packed+zlib`` — bit-packed blocks zlib-compressed on top (the
  smallest; decode pays both stages).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from ..db.packing import bit_width, pack_bits, unpack_bits
from ..db.store import DatabaseSet

__all__ = [
    "PagedStore",
    "write_paged",
    "SCHEMA",
    "CODECS",
    "DEFAULT_BLOCK_POSITIONS",
]

SCHEMA = "repro/paged-store/v1"

_MAGIC = b"REPROPGD"
_DTYPE = "<i2"

#: Per-block encodings the format supports.
CODECS = ("zlib", "raw", "packed", "packed+zlib")

#: Default block granularity: 4096 int16 values = 8 KiB uncompressed.
DEFAULT_BLOCK_POSITIONS = 4096


def _value_range(dbs: DatabaseSet) -> tuple:
    """Global ``(lo, hi)`` over every database's values (0, 0 when the
    store holds no positions) — the bound the packed codecs derive
    their bit width from."""
    lo, hi = 0, 0
    seen = False
    for db_id in dbs.ids():
        values = dbs[db_id]
        if values.shape[0] == 0:
            continue
        vlo, vhi = int(values.min()), int(values.max())
        lo, hi = (vlo, vhi) if not seen else (min(lo, vlo), max(hi, vhi))
        seen = True
    return lo, hi


def write_paged(
    dbs: DatabaseSet,
    path,
    block_positions: int = DEFAULT_BLOCK_POSITIONS,
    level: int = 6,
    codec: str = "zlib",
) -> dict:
    """Convert a :class:`DatabaseSet` to the paged format.

    Only value arrays are paged; depth arrays, when present, stay in the
    ``.npz`` world (serving probes values).

    ``codec`` selects the per-block encoding (see the module doc):
    ``zlib`` | ``raw`` | ``packed`` | ``packed+zlib``.  The packed
    codecs derive their bit width from the store's global value range
    and record it in the header, so every reader decodes with the same
    parameters.

    Returns a summary dict whose byte fields name what they measure:

    * ``value_bytes`` — in-memory int16 working bytes (2 per position);
    * ``stored_bytes`` — encoded block bytes as written (the payloads);
    * ``file_bytes`` — whole file including magic and header;
    * ``stored_ratio`` — ``value_bytes / stored_bytes``; 1.0 for an
      empty store (nothing to store, parity — never 0.0, a zlib'd empty
      block still costs header bytes), and ~1.0 under ``codec="raw"``
      by construction.
    """
    if block_positions < 1:
        raise ValueError("block_positions must be >= 1")
    if codec not in CODECS:
        raise ValueError(
            f"unknown codec {codec!r}; use one of {', '.join(CODECS)}"
        )
    path = Path(path)
    packed = codec in ("packed", "packed+zlib")
    pack = None
    if packed:
        lo, hi = _value_range(dbs)
        pack = {"bits": bit_width(lo, hi), "offset": lo}
    databases: dict[str, dict] = {}
    payloads: list[bytes] = []
    offset = 0
    value_bytes = 0
    for db_id in dbs.ids():
        values = np.ascontiguousarray(dbs[db_id], dtype=_DTYPE)
        value_bytes += values.nbytes
        blocks = []
        for start in range(0, max(values.shape[0], 1), block_positions):
            chunk = values[start : start + block_positions]
            if chunk.shape[0] == 0 and start > 0:
                break
            if codec == "raw":
                payload = chunk.tobytes()
            elif codec == "zlib":
                payload = zlib.compress(chunk.tobytes(), level)
            else:
                payload = pack_bits(
                    chunk, pack["bits"], pack["offset"]
                ).tobytes()
                if codec == "packed+zlib":
                    payload = zlib.compress(payload, level)
            blocks.append(
                {"offset": offset, "clen": len(payload), "count": int(chunk.shape[0])}
            )
            payloads.append(payload)
            offset += len(payload)
        databases[str(db_id)] = {
            "positions": int(values.shape[0]),
            "blocks": blocks,
        }
    header_fields = {
        "schema": SCHEMA,
        "game": dbs.game_name,
        "rules": dbs.rules,
        "block_positions": int(block_positions),
        "dtype": _DTYPE,
        "codec": codec,
        "databases": databases,
    }
    if pack is not None:
        header_fields["pack"] = pack
    header = json.dumps(header_fields, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for payload in payloads:
            fh.write(payload)
    stored = offset
    return {
        "databases": len(databases),
        "positions": dbs.total_positions,
        "codec": codec,
        "value_bytes": value_bytes,
        "file_bytes": path.stat().st_size,
        "stored_bytes": stored,
        "stored_ratio": (
            (value_bytes / stored) if value_bytes and stored else 1.0
        ),
    }


class _BlockTable:
    """Decoded block index of one database."""

    __slots__ = ("positions", "offsets", "clens", "counts")

    def __init__(self, entry: dict):
        self.positions = int(entry["positions"])
        blocks = entry["blocks"]
        self.offsets = [int(b["offset"]) for b in blocks]
        self.clens = [int(b["clen"]) for b in blocks]
        self.counts = [int(b["count"]) for b in blocks]

    @property
    def n_blocks(self) -> int:
        return len(self.offsets)


class PagedStore:
    """Random-access reader over one paged file.

    Reads are thread-safe (each is one positional ``os.pread``, which
    neither moves nor depends on the shared handle's offset), which is
    what lets the TCP server probe one store from many client threads
    without a lock.  The store itself holds **no** decoded data —
    callers that want reuse put a :class:`~repro.serve.cache.BlockCache`
    in front of :meth:`read_block`.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._file = open(self.path, "rb")
        magic = self._file.read(len(_MAGIC))
        if magic != _MAGIC:
            self._file.close()
            raise ValueError(f"{self.path} is not a paged store (bad magic)")
        header_len = int.from_bytes(self._file.read(8), "little")
        header = json.loads(self._file.read(header_len).decode())
        if header.get("schema") != SCHEMA:
            self._file.close()
            raise ValueError(
                f"unsupported paged-store schema {header.get('schema')!r}"
            )
        self.game_name: str = header["game"]
        self.rules: str = header["rules"]
        self.block_positions: int = int(header["block_positions"])
        #: Per-block encoding; headers written before the field existed
        #: are zlib by construction.
        self.codec: str = header.get("codec", "zlib")
        if self.codec not in CODECS:
            self._file.close()
            raise ValueError(f"unsupported paged-store codec {self.codec!r}")
        pack = header.get("pack")
        if self.codec in ("packed", "packed+zlib"):
            if not isinstance(pack, dict):
                self._file.close()
                raise ValueError(
                    f"{self.path}: codec {self.codec!r} header lacks the "
                    "pack parameters"
                )
            #: Bits per value and bias of the packed codecs (None
            #: otherwise).
            self.pack_bits_per_value: int | None = int(pack["bits"])
            self.pack_offset: int | None = int(pack["offset"])
        else:
            self.pack_bits_per_value = None
            self.pack_offset = None
        self._dtype = np.dtype(header["dtype"])
        self._data_start = len(_MAGIC) + 8 + header_len
        self._tables = {
            DatabaseSet._parse_id(key): _BlockTable(entry)
            for key, entry in header["databases"].items()
        }

    # ------------------------------------------------------------- metadata

    def ids(self) -> list:
        return sorted(self._tables)

    def __contains__(self, db_id) -> bool:
        return db_id in self._tables

    def positions(self, db_id) -> int:
        return self._table(db_id).positions

    @property
    def total_positions(self) -> int:
        return sum(t.positions for t in self._tables.values())

    def n_blocks(self, db_id) -> int:
        return self._table(db_id).n_blocks

    def block_of(self, index: int) -> int:
        """Block number holding position ``index`` (any database)."""
        return int(index) // self.block_positions

    @property
    def file_bytes(self) -> int:
        return self.path.stat().st_size

    @property
    def data_start(self) -> int:
        """File offset where block data begins (block offsets are
        relative to this point) — what an mmap reader addresses from."""
        return self._data_start

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of every block."""
        return self._dtype

    def block_span(self, db_id, block_no: int) -> tuple:
        """``(relative offset, stored length, position count)`` of one
        block — the address an external (mmap) reader needs."""
        table = self._table(db_id)
        if not (0 <= block_no < table.n_blocks):
            raise IndexError(
                f"block {block_no} out of range for db {db_id!r} "
                f"({table.n_blocks} blocks)"
            )
        return (table.offsets[block_no], table.clens[block_no],
                table.counts[block_no])

    def stored_block_bytes(self, db_id, block_no: int) -> int:
        """Stored (encoded) byte size of one block, as on disk."""
        return self.block_span(db_id, block_no)[1]

    def block_sizes(self, db_id) -> list:
        """Stored byte size of every block of one database, by block
        number (the store's own table: read it, do not change it)."""
        return self._table(db_id).clens

    def _table(self, db_id) -> _BlockTable:
        try:
            return self._tables[db_id]
        except KeyError:
            raise KeyError(
                f"database {db_id!r} not present; have {self.ids()}"
            ) from None

    # ---------------------------------------------------------------- reads

    def decode_block(self, payload: bytes, count: int) -> np.ndarray:
        """Decode one stored block payload to its value array."""
        codec = self.codec
        if codec == "packed+zlib":
            payload = zlib.decompress(payload)
            codec = "packed"
        elif codec == "zlib":
            payload = zlib.decompress(payload)
            codec = "raw"
        if codec == "packed":
            values = unpack_bits(
                np.frombuffer(payload, dtype=np.uint8),
                count,
                self.pack_bits_per_value,
                self.pack_offset,
            ).astype(self._dtype, copy=False)
        else:
            values = np.frombuffer(payload, dtype=self._dtype)
        return values

    def read_block(self, db_id, block_no: int) -> np.ndarray:
        """Read one block: one positional read plus one block decode
        (zlib stream, bulk bit-unpack, or a bare copy for
        ``codec="raw"``), O(block)."""
        relative, clen, count = self.block_span(db_id, block_no)
        offset = self._data_start + relative
        payload = os.pread(self._file.fileno(), clen, offset)
        if len(payload) != clen:
            raise IOError(f"short read in {self.path} at offset {offset}")
        try:
            values = self.decode_block(payload, count)
        except ValueError as exc:
            raise IOError(
                f"block {block_no} of db {db_id!r} failed to decode: {exc}"
            ) from exc
        if values.shape[0] != count:
            raise IOError(
                f"block {block_no} of db {db_id!r} decoded "
                f"{values.shape[0]} values, expected {count}"
            )
        return values

    def read_all(self, db_id) -> np.ndarray:
        """Whole database (test/convenience path, not the serving path)."""
        table = self._table(db_id)
        if table.n_blocks == 0:
            return np.zeros(0, dtype=self._dtype)
        return np.concatenate(
            [self.read_block(db_id, b) for b in range(table.n_blocks)]
        )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PagedStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
