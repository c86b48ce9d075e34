"""Zero-copy local fast path: probe an mmapped paged store in-process.

When the "endpoint" is a paged file on the local filesystem, a socket —
even a loopback one — buys nothing and costs two copies and two context
switches per batch.  :class:`LocalProbeClient` maps the store read-only
with ``mmap`` and answers probes directly from the mapping:

* ``codec="raw"`` stores are served **zero-copy**: each database is one
  ``np.frombuffer`` view straight into the mapping (blocks are written
  contiguously), so a gather is a single fancy-index over pages the OS
  cache shares with every other process mapping the same file;
* ``codec="packed"`` stores are **bulk-unpacked once** at startup: each
  database's bit-packed blocks decode to one resident int16 array (the
  ``unpacked_bytes`` gauge), after which gathers are the same single
  fancy-index as raw — the mapping itself stays 4-8x smaller;
* ``codec="zlib"`` / ``codec="packed+zlib"`` stores cannot be served
  from the mapping (zlib streams have no random access): the client
  falls back to per-block decompression through a
  :class:`~repro.serve.cache.BlockCache`, same policy as the server's
  paged backend, and counts the fallback (``mmap_fallbacks``) with the
  codec recorded as the reason in :meth:`LocalProbeClient.stats`.

The client satisfies the duck-typed probe protocol of
:class:`~repro.aserve.client.BinaryProbeClient` (``probe`` / ``probe_many`` /
``best_move`` / ``depth_of`` / ``__contains__`` / …), so query and
search code cannot tell it apart from a TCP client — only the latency
can.  :func:`repro.aserve.connect` selects it automatically when the
endpoint string is an existing local path.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..obs import NULL_METRICS
from ..serve.cache import BlockCache
from ..serve.pagedstore import PagedStore
from ..serve.service import (
    DEFAULT_CACHE_BYTES,
    PagedBackend,
    gather_resident,
    one_database,
    split_positions,
)

__all__ = ["LocalProbeClient"]


class LocalProbeClient:
    """In-process probe client over an mmapped paged store.

    Thread-safe (the zlib block cache serializes itself; raw-codec reads
    are lock-free numpy views).  ``metrics`` is typically
    ``registry.scoped("aserve.local")``.
    """

    def __init__(self, path, cache_bytes: int = DEFAULT_CACHE_BYTES,
                 metrics=None):
        self._store = PagedStore(path)
        self.path = self._store.path
        self._metrics = NULL_METRICS if metrics is None else metrics
        with open(self.path, "rb") as fh:
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._metrics.set_gauge("mmap_bytes", len(self._mm))
        self._game = None
        self._closed = False
        codec = self._store.codec
        if codec == "raw":
            # Zero-copy: views straight into the mapping.
            self.mode = "zero-copy"
            self.fallback_reason = None
            self._cache = None
            self._arrays = {
                db_id: self._raw_view(db_id) for db_id in self._store.ids()
            }
        elif codec == "packed":
            # Bulk-unpack every database once; gathers then match the
            # raw fast lane while the file stays bit-packed.
            self.mode = "unpacked"
            self.fallback_reason = None
            self._cache = None
            self._arrays = {
                db_id: self._unpacked_array(db_id)
                for db_id in self._store.ids()
            }
            self._metrics.set_gauge(
                "unpacked_bytes",
                sum(a.nbytes for a in self._arrays.values()),
            )
        else:
            # zlib-family codecs have no random access inside a block
            # stream: fall back to the cached per-block decode path and
            # say why.
            self.mode = "block-cache"
            self.fallback_reason = f"codec {codec!r} is not mmap-decodable"
            self._metrics.inc("mmap_fallbacks")
            self._cache = BlockCache(cache_bytes)
            self._paged = PagedBackend(self._store, self._cache)
            self._arrays = None

    def _raw_view(self, db_id) -> np.ndarray:
        """One zero-copy int16 view over a whole database's blocks."""
        store = self._store
        n_blocks = store.n_blocks(db_id)
        positions = store.positions(db_id)
        if n_blocks == 0 or positions == 0:
            return np.zeros(0, dtype=store.dtype)
        first_offset, _, _ = store.block_span(db_id, 0)
        expected = first_offset
        for block_no in range(n_blocks):
            offset, clen, count = store.block_span(db_id, block_no)
            if offset != expected or clen != count * store.dtype.itemsize:
                raise ValueError(
                    f"db {db_id!r} blocks are not contiguous raw int16 "
                    f"runs; cannot map zero-copy"
                )
            expected = offset + clen
        return np.frombuffer(
            self._mm, dtype=store.dtype, count=positions,
            offset=store.data_start + first_offset,
        )

    def _unpacked_array(self, db_id) -> np.ndarray:
        """One database bulk-unpacked from its bit-packed blocks: each
        block's payload is sliced out of the mapping and decoded with
        the header's pack parameters (no file reads, no cache)."""
        store = self._store
        n_blocks = store.n_blocks(db_id)
        if n_blocks == 0 or store.positions(db_id) == 0:
            return np.zeros(0, dtype=store.dtype)
        parts = []
        for block_no in range(n_blocks):
            offset, clen, count = store.block_span(db_id, block_no)
            start = store.data_start + offset
            payload = self._mm[start : start + clen]
            parts.append(store.decode_block(payload, count))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------- metadata

    @property
    def game_name(self) -> str:
        """Game of the mapped store."""
        return self._store.game_name

    @property
    def rules(self) -> str:
        """Rule string of the mapped store."""
        return self._store.rules

    def ids(self) -> list:
        """Database ids of the mapped store."""
        return self._store.ids()

    def __contains__(self, db_id) -> bool:
        return db_id in self._store

    def positions(self, db_id) -> int:
        """Position count of one database."""
        return self._store.positions(db_id)

    def ping(self) -> bool:
        """Liveness: trivially true, there is no connection to lose."""
        return True

    def info(self) -> dict:
        """Metadata in the same shape as ``BinaryProbeClient.info()``."""
        return {
            "game": self.game_name,
            "rules": self.rules,
            "backend": "mmap",
            "ids": self.ids(),
            "positions": {str(i): self.positions(i) for i in self.ids()},
        }

    def stats(self) -> dict:
        """Mapping and (for zlib stores) cache counters."""
        stats = {
            "backend": "mmap",
            "codec": self._store.codec,
            "mode": self.mode,
            "mmap_bytes": len(self._mm),
        }
        if self.fallback_reason is not None:
            stats["fallback_reason"] = self.fallback_reason
        if self.mode == "unpacked":
            stats["unpacked_bytes"] = sum(
                a.nbytes for a in self._arrays.values()
            )
        if self._cache is not None:
            stats.update(self._cache.stats())
        return stats

    # ---------------------------------------------------------------- probes

    def _gather_packed(self, directory, db_slots, indices) -> np.ndarray:
        """The service's batch gather: the paged backend's in
        block-cache mode, the in-memory one over the mapped (or
        unpacked) arrays otherwise."""
        if self._arrays is None:
            return self._paged.gather_packed(directory, db_slots, indices)
        return gather_resident(
            self._arrays, self._store.positions, directory, db_slots, indices
        )

    def probe(self, db_id, index: int) -> int:
        """Exact value of one position."""
        self._metrics.inc("probes")
        return int(self._gather_packed(*one_database(db_id, [index]))[0])

    def probe_many(self, positions) -> np.ndarray:
        """Values for ``[(db_id, index), ...]`` in request order."""
        directory, db_slots, indices = split_positions(positions)
        self._metrics.inc("batches")
        self._metrics.inc("probes", int(indices.shape[0]))
        return self._gather_packed(directory, db_slots, indices)

    def probe_array(self, db_id, indices) -> np.ndarray:
        """Vectorized single-database batch (the zero-copy fast lane:
        for raw stores the gather is a fancy-index over the mapping)."""
        packed = one_database(db_id, indices)
        self._metrics.inc("batches")
        self._metrics.inc("probes", int(packed[2].shape[0]))
        return self._gather_packed(*packed)

    def depth_of(self, db_id, index: int):
        """Distances are not paged; always ``None`` (same contract as
        the TCP clients)."""
        return None

    # ------------------------------------------------------------ best move

    @property
    def game(self):
        """The capture game, reconstructed from store metadata."""
        if self._game is None:
            from ..games.registry import capture_game_for

            self._game = capture_game_for(self)
        return self._game

    def best_moves(self, board):
        """(position value, optimal moves) — the same
        :func:`~repro.db.query.best_moves` logic, probing the mapping."""
        from ..db.query import best_moves

        self._metrics.inc("best_move_queries")
        return best_moves(self.game, self, board)

    def best_move(self, board) -> dict:
        """Best move in the same shape as ``BinaryProbeClient.best_move``:
        ``{"value", "pits", "moves"}``."""
        value, moves = self.best_moves(board)
        return {
            "value": int(value),
            "pits": [m.pit for m in moves],
            "moves": [
                {"pit": m.pit, "captures": m.captures, "value": m.value}
                for m in moves
            ],
        }

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Drop the views, unmap the file, close the store; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._arrays is not None:
            # Views into the mapping must die before it — emptied, not
            # just dropped: the traceback of a refused batch still holds
            # the dict.
            self._arrays.clear()
        self._arrays = None
        self._mm.close()
        self._store.close()

    def __enter__(self) -> "LocalProbeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
