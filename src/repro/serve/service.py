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
the same protocol — the TCP :class:`~repro.aserve.client.BinaryProbeClient`
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
           "batch_sizes", "check_range", "gather_resident", "one_database",
           "split_positions"]

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


def one_database(db_id, indices) -> tuple:
    """``indices`` of a single database as the ``(directory, db_slots,
    indices)`` of a batch — how the scalar and one-database calls reach
    the one batch gather."""
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    return [db_id], np.zeros(indices.shape[0], dtype=np.intp), indices


def check_range(db_id, idx: np.ndarray, n: int) -> None:
    """Raise :class:`IndexError` naming the first index of ``idx``
    outside ``[0, n)``, the database and its size."""
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n):
        bad = int(idx[(idx < 0) | (idx >= n)][0])
        raise IndexError(
            f"index {bad} out of range for db {db_id!r} ({n} positions)"
        )


def batch_sizes(positions_of, directory, db_slots, indices) -> tuple:
    """Validate a whole batch before anything is looked up.

    Returns ``(slots, sizes, used)``: the slots widened to int64 (wire
    slots are ``<u2``; a composite key formed in that width would
    wrap), each referenced database's position count by slot, and the
    referenced slots as an ascending list.  ``positions_of`` is asked only
    about databases a probe references.

    A refused batch raises what answering it database by database, in
    slot order, used to raise — same type, same message, same database
    named — but *before* any block is loaded, so it leaves a cache
    exactly as it found it.
    """
    slots = np.asarray(db_slots).astype(np.int64, copy=False)
    if int(slots.max()) >= len(directory) or int(slots.min()) < 0:
        raise KeyError("probe references a db slot beyond the directory")
    used = np.bincount(slots, minlength=len(directory)).nonzero()[0].tolist()
    sizes = np.zeros(len(directory), dtype=np.int64)
    try:
        for slot in used:
            sizes[slot] = positions_of(directory[slot])
    except KeyError:
        in_range = False
    else:
        in_range = int(indices.min()) >= 0 and bool(
            (indices < sizes[slots]).all()
        )
    if not in_range:
        for slot in used:
            db_id = directory[slot]
            check_range(db_id, indices[slots == slot], positions_of(db_id))
    return slots, sizes, used


def gather_resident(arrays, positions_of, directory, db_slots, indices):
    """The batch gather over whole arrays in memory: validate
    (:func:`batch_sizes`), then one take per database referenced.
    ``arrays[db_id]`` is that database's value array."""
    out = np.empty(indices.shape[0], dtype=np.int16)
    if not out.shape[0]:
        return out
    slots, _, used = batch_sizes(positions_of, directory, db_slots, indices)
    for slot in used:
        mask = slots == slot
        out[mask] = arrays[directory[slot]][indices[mask]]
    return out


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

    def gather_packed(self, directory, db_slots, indices) -> np.ndarray:
        """Values of ``directory[db_slots[i]]`` at ``indices[i]``."""
        return gather_resident(
            self._dbs, self.positions, directory, db_slots, indices
        )

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

    def gather(self, db_id, indices) -> np.ndarray:
        """Values of one database at ``indices`` (any order)."""
        return self.gather_packed(*one_database(db_id, indices))

    def gather_packed(self, directory, db_slots, indices) -> np.ndarray:
        """Values of ``directory[db_slots[i]]`` at ``indices[i]``: one
        validation, one sort, one pass through the cache, one take.

        The batch is validated whole (:func:`batch_sizes`), sorted once
        on the composite ``(db slot, block)`` key so every distinct
        block is one contiguous run, and the runs are looked up with
        :meth:`BlockCache.get_many` — exactly one cache lookup per
        distinct (database, block), in storage order.  The blocks are
        laid end to end and every probe is answered by one fancy-index
        take, scattered back to request order.

        The run list is walked in windows of as many blocks as fit the
        cache budget, so however large the batch, a request pins at
        most one budget of blocks and one budget of copy beside the
        cache's own budget plus one block.
        """
        store, cache = self._store, self._cache
        total = indices.shape[0]
        out = np.empty(total, dtype=np.int16)
        if not total:
            return out
        slots, sizes, used = batch_sizes(
            self.positions, directory, db_slots, indices
        )
        block_positions = store.block_positions
        blocks, offsets = np.divmod(indices, block_positions)
        stride = int(sizes.max()) // block_positions + 1
        composite = slots * stride + blocks
        order = composite.argsort(kind="stable")
        composite = composite[order]
        offsets = offsets[order]
        starts_run = np.empty(total, dtype=bool)
        starts_run[0] = True
        np.not_equal(composite[1:], composite[:-1], out=starts_run[1:])
        run_of = starts_run.cumsum()  # sorted probe -> its run, from 0
        run_of -= 1
        run_slot, run_block = np.divmod(composite[starts_run], stride)
        keys = list(zip(
            [directory[slot] for slot in run_slot.tolist()],
            run_block.tolist(),
        ))
        stored_of = {
            directory[slot]: store.block_sizes(directory[slot])
            for slot in used
        }

        def load(key):
            return store.read_block(*key)

        def stored_bytes(key):
            return stored_of[key[0]][key[1]]

        window = max(
            1, cache.budget_bytes // (block_positions * store.dtype.itemsize)
        )
        b = 0
        for lo in range(0, len(keys), window):
            found = cache.get_many(keys[lo:lo + window], load, stored_bytes)
            # Sorted probes [a, b) are the ones these runs answer.
            a, b = b, int(run_of.searchsorted(lo + len(found)))
            if len(found) == 1:
                out[order[a:b]] = found[0][offsets[a:b]]
                continue
            lengths = np.fromiter(map(len, found), dtype=np.int64,
                                  count=len(found))
            base = lengths.cumsum() - lengths  # where each block begins
            out[order[a:b]] = np.concatenate(found)[
                base[run_of[a:b] - lo] + offsets[a:b]
            ]
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
        return int(
            self._backend.gather_packed(*one_database(db_id, [index]))[0]
        )

    def probe_many(self, positions) -> np.ndarray:
        """Values for ``[(db_id, index), ...]``, in request order.

        The list is split once (:func:`split_positions`) and answered by
        :meth:`probe_packed`, so a batch touching one block pays for it
        once regardless of request order.
        """
        return self.probe_packed(*split_positions(positions))

    def probe_array(self, db_id, indices) -> np.ndarray:
        """Vectorized ``probe_many`` over one database: bit-identical to
        ``probe_many([(db_id, i) for i in indices])``, with no
        per-position Python work."""
        return self.probe_packed(*one_database(db_id, indices))

    def probe_packed(self, directory, db_slots, indices) -> np.ndarray:
        """Vectorized mixed-database batch: probe ``i`` targets database
        ``directory[db_slots[i]]`` at position ``indices[i]``.

        The binary wire format of :mod:`repro.aserve.frames` decodes
        straight into these parallel arrays, and the backend answers
        them whole (``gather_packed``: validate, one locality sort, one
        cache pass, one take), so a 64k-probe frame costs a handful of
        Python-level operations, not 64k.
        """
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._metrics.inc("batches")
        self._metrics.inc("probes", int(indices.shape[0]))
        return self._backend.gather_packed(directory, db_slots, indices)

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
