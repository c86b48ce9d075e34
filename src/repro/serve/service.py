"""The probe service — one lookup protocol over two storage backends.

A :class:`ProbeService` answers the three questions a game-playing
client asks of a solved database: the value of one position
(:meth:`~ProbeService.probe`), the values of many positions
(:meth:`~ProbeService.probe_many` — sorted by storage locality so a
batch touches each cached block once), and the best move from a board
(:meth:`~ProbeService.best_moves`, which delegates to the same
:func:`~repro.db.query.best_moves` logic as the in-memory path, so
serving can never disagree with it).

Backends:

* :class:`MemoryBackend` — a resident :class:`~repro.db.store.DatabaseSet`
  (today's behaviour, wrapped);
* :class:`PagedBackend` — a :class:`~repro.serve.pagedstore.PagedStore`
  behind a :class:`~repro.serve.cache.BlockCache`, which never holds
  more than the cache budget plus one block in memory.

Anything exposing ``probe`` / ``probe_many`` / ``__contains__`` speaks
the same protocol — the TCP :class:`~repro.serve.client.ProbeClient`
does too, so ``repro.db.query`` and ``repro.db.search`` run unchanged
over a remote server.
"""

from __future__ import annotations


import numpy as np

from ..db.store import DatabaseSet
from ..obs import NULL_METRICS
from .cache import BlockCache
from .pagedstore import PagedStore

__all__ = ["MemoryBackend", "PagedBackend", "ProbeService",
           "check_range", "split_positions"]

#: Default cache budget for paged serving: 64 MiB.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def split_positions(positions) -> tuple:
    """``[(db_id, index), ...]`` as ``(directory, db_slots, indices)``.

    ``directory`` lists the distinct database ids in first-seen order,
    ``db_slots[i]`` is probe ``i``'s slot in it and ``indices[i]`` its
    position (cast to int64 once, as an array).  Every batched path —
    service, local client, binary frames, cluster router — takes its
    list apart here and works on the parallel arrays from then on.
    """
    if not isinstance(positions, (list, tuple)):
        positions = list(positions)
    if not positions:
        return [], np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    db_ids, indices = zip(*positions, strict=True)
    directory = list(dict.fromkeys(db_ids))
    if len(directory) == 1:
        db_slots = np.zeros(len(db_ids), dtype=np.intp)
    else:
        slot_of = {db_id: slot for slot, db_id in enumerate(directory)}
        db_slots = np.fromiter(map(slot_of.__getitem__, db_ids),
                               dtype=np.intp, count=len(db_ids))
    return directory, db_slots, np.array(indices, dtype=np.int64)


def check_range(db_id, idx: np.ndarray, n: int) -> None:
    """Raise :class:`IndexError` naming the first index of ``idx``
    outside ``[0, n)``, the database and its size."""
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n):
        bad = int(idx[(idx < 0) | (idx >= n)][0])
        raise IndexError(
            f"index {bad} out of range for db {db_id!r} ({n} positions)"
        )


class MemoryBackend:
    """Probe backend over an in-memory :class:`DatabaseSet`."""

    kind = "memory"

    def __init__(self, dbs: DatabaseSet):
        self._dbs = dbs

    @property
    def game_name(self) -> str:
        return self._dbs.game_name

    @property
    def rules(self) -> str:
        return self._dbs.rules

    def ids(self) -> list:
        return self._dbs.ids()

    def __contains__(self, db_id) -> bool:
        return db_id in self._dbs

    def positions(self, db_id) -> int:
        return int(self._dbs[db_id].shape[0])

    def gather(self, db_id, indices: np.ndarray) -> np.ndarray:
        return self._dbs[db_id][indices]

    def depth_of(self, db_id, index: int):
        return self._dbs.depth_of(db_id, index)

    def stats(self) -> dict:
        return {"resident_bytes": self._dbs.memory_bytes()}

    def close(self) -> None:
        pass


class PagedBackend:
    """Probe backend over a paged store behind an LRU block cache."""

    kind = "paged"

    def __init__(self, store: PagedStore, cache: BlockCache):
        self._store = store
        self._cache = cache

    @property
    def game_name(self) -> str:
        return self._store.game_name

    @property
    def rules(self) -> str:
        return self._store.rules

    @property
    def cache(self) -> BlockCache:
        return self._cache

    @property
    def store(self) -> PagedStore:
        return self._store

    def ids(self) -> list:
        return self._store.ids()

    def __contains__(self, db_id) -> bool:
        return db_id in self._store

    def positions(self, db_id) -> int:
        return self._store.positions(db_id)

    def gather(self, db_id, indices: np.ndarray) -> np.ndarray:
        block_positions = self._store.block_positions
        if not indices.shape[0]:
            return np.empty(0, dtype=np.int16)
        blocks = indices // block_positions
        if blocks.shape[0] > 1 and np.any(np.diff(blocks) < 0):
            # Direct callers may pass unsorted indices; the probe
            # service's batched paths arrive locality-sorted and skip
            # this re-sort.
            order = np.argsort(indices, kind="stable")
            out = np.empty(indices.shape[0], dtype=np.int16)
            out[order] = self.gather(db_id, indices[order])
            return out
        # Blocks are non-decreasing: each distinct block is one
        # contiguous run, so the gather is one cache hit plus one slice
        # per block instead of a boolean mask over the whole batch.
        out = np.empty(indices.shape[0], dtype=np.int16)
        offsets = indices - blocks * block_positions
        run_bounds = (np.flatnonzero(np.diff(blocks)) + 1).tolist()
        starts = [0, *run_bounds]
        stops = [*run_bounds, blocks.shape[0]]
        store, cache = self._store, self._cache
        # The cache serializes itself (BlockCache holds its RLock across
        # the miss loader), so block loads stay single-flight without an
        # extra backend lock on the hit path; a hit runs neither lambda.
        for a, b, block_no in zip(starts, stops, blocks[starts].tolist()):
            values = cache.get(
                (db_id, block_no),
                lambda n=block_no: store.read_block(db_id, n),
                stored_bytes=lambda n=block_no: store.stored_block_bytes(
                    db_id, n
                ),
            )
            out[a:b] = values[offsets[a:b]]
        return out

    def depth_of(self, db_id, index: int):
        return None  # depth arrays are not paged

    def stats(self) -> dict:
        stats = dict(self._cache.stats())
        stats["codec"] = self._store.codec
        return stats

    def close(self) -> None:
        self._store.close()


class ProbeService:
    """Batched position lookups plus best-move queries over one backend."""

    def __init__(self, backend, game=None, metrics=None):
        self._backend = backend
        self._game = game
        self._metrics = NULL_METRICS if metrics is None else metrics

    # --------------------------------------------------------- constructors

    @classmethod
    def from_database_set(cls, dbs: DatabaseSet, game=None, metrics=None):
        return cls(MemoryBackend(dbs), game=game, metrics=metrics)

    @classmethod
    def from_paged(
        cls,
        store,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        game=None,
        metrics=None,
    ):
        """Serve a paged store (path or open :class:`PagedStore`)."""
        if not isinstance(store, PagedStore):
            store = PagedStore(store)
        scoped = metrics.scoped("cache") if metrics is not None else None
        cache = BlockCache(cache_bytes, metrics=scoped)
        return cls(PagedBackend(store, cache), game=game, metrics=metrics)

    # ------------------------------------------------------------- metadata

    @property
    def backend(self):
        return self._backend

    @property
    def backend_kind(self) -> str:
        return self._backend.kind

    @property
    def game_name(self) -> str:
        return self._backend.game_name

    @property
    def rules(self) -> str:
        return self._backend.rules

    def ids(self) -> list:
        return self._backend.ids()

    def __contains__(self, db_id) -> bool:
        return db_id in self._backend

    def positions(self, db_id) -> int:
        return self._backend.positions(db_id)

    def stats(self) -> dict:
        stats = dict(self._backend.stats())
        stats["backend"] = self._backend.kind
        return stats

    # ---------------------------------------------------------------- probes

    def probe(self, db_id, index: int) -> int:
        """Exact value of position ``index`` of database ``db_id``."""
        self._metrics.inc("probes")
        idx = np.asarray([index], dtype=np.int64)
        check_range(db_id, idx, self._backend.positions(db_id))
        return int(self._backend.gather(db_id, idx)[0])

    def probe_many(self, positions) -> np.ndarray:
        """Values for ``[(db_id, index), ...]``, in request order.

        The list is split once (:func:`split_positions`) and answered by
        :meth:`probe_packed`, so a batch touching one block pays for it
        once regardless of request order.
        """
        return self.probe_packed(*split_positions(positions))

    def probe_array(self, db_id, indices) -> np.ndarray:
        """Vectorized ``probe_many`` over one database.

        Bit-identical to ``probe_many([(db_id, i) for i in indices])``
        but with no per-position Python work: the batch is locality-
        sorted with ``argsort``, gathered in one backend call per block
        run, and scattered back to request order.  This is the binary
        server's hot path.
        """
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._metrics.inc("batches")
        self._metrics.inc("probes", int(indices.shape[0]))
        return self._gather_sorted(db_id, indices)

    def probe_packed(self, directory, db_slots, indices) -> np.ndarray:
        """Vectorized mixed-database batch: probe ``i`` targets database
        ``directory[db_slots[i]]`` at position ``indices[i]``.

        The binary wire format of :mod:`repro.aserve.frames` decodes
        straight into these parallel arrays; grouping per database and
        the locality sort are all numpy, so a 64k-probe frame costs a
        handful of Python-level operations, not 64k.
        """
        db_slots = np.asarray(db_slots)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._metrics.inc("batches")
        self._metrics.inc("probes", int(indices.shape[0]))
        out = np.empty(indices.shape[0], dtype=np.int16)
        if not indices.shape[0]:
            return out
        if int(db_slots.max()) >= len(directory) or int(db_slots.min()) < 0:
            raise KeyError("probe references a db slot beyond the directory")
        for slot, db_id in enumerate(directory):
            mask = db_slots == slot
            if mask.any():
                out[mask] = self._gather_sorted(db_id, indices[mask])
        return out

    def _gather_sorted(self, db_id, indices: np.ndarray) -> np.ndarray:
        """Range-check, locality-sort, gather, restore request order."""
        check_range(db_id, indices, self._backend.positions(db_id))
        if indices.shape[0] <= 1:
            return self._backend.gather(db_id, indices).astype(
                np.int16, copy=False
            )
        order = np.argsort(indices, kind="stable")
        out = np.empty(indices.shape[0], dtype=np.int16)
        out[order] = self._backend.gather(db_id, indices[order])
        return out

    def depth_of(self, db_id, index: int):
        """Distance for one position, ``None`` when not available."""
        return self._backend.depth_of(db_id, index)

    # ------------------------------------------------------------ best move

    @property
    def game(self):
        """The capture game, reconstructed from metadata on first use."""
        if self._game is None:
            from ..games.registry import capture_game_for

            self._game = capture_game_for(self)
        return self._game

    def evaluate_moves(self, board: np.ndarray):
        """Exact evaluation of every legal move (probes are batched)."""
        from ..db.query import evaluate_moves

        self._metrics.inc("best_move_queries")
        return evaluate_moves(self.game, self, board)

    def best_moves(self, board: np.ndarray):
        """(position value, optimal moves) — the serving-side twin of
        :func:`repro.db.query.best_moves`."""
        from ..db.query import best_moves

        self._metrics.inc("best_move_queries")
        return best_moves(self.game, self, board)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "ProbeService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
