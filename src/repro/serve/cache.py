"""LRU block cache with a byte budget, safe under concurrent probes.

Sits between a :class:`~repro.serve.pagedstore.PagedStore` and the probe
path: decompressed blocks are retained up to ``budget_bytes``, evicting
least-recently-used blocks first.  The invariant the tests pin down is
that resident bytes never exceed *budget plus one block* — a miss must
materialize its block before anything can be evicted, and the block just
loaded is never evicted to make room for itself.

The cache is **thread-safe**: the threaded JSON server runs one thread
per connection against one shared cache, so every public operation —
and the LRU reordering plus byte accounting inside it — runs under one
``RLock``.  Miss loaders run *under the lock too* (single-flight: two
threads missing the same block do one store read, and the budget can
never be overshot by concurrent loads); that matches the serialization
the paged backend previously imposed externally, so the ~170k probes/s
JSON path pays the same lock it always did, just one layer down.
Re-entrancy (a loader that itself consults the cache) is why the lock
is an ``RLock``.  Contended acquisitions are counted
(``lock_contended``) via a non-blocking probe before the blocking
acquire, giving operators a direct gauge of cache serialization
pressure.  A probe batch takes the lock once, not once per block:
``get_many`` is a run of ``get``s under a single acquisition.

Byte accounting under compressed codecs: the budget counts
**decompressed working bytes** (``block.nbytes`` of the arrays probes
actually touch), because that is the RAM the cache really holds — a
bit-packed store decodes to the same int16 blocks as a raw one.  The
*stored* (encoded) size of each resident block is tracked alongside and
surfaced as the ``packed_resident_bytes`` gauge, so operators can see
what the same working set costs in its on-disk form (equal to
``resident_bytes`` for ``codec="raw"``, 4-8x smaller for packed
nibble-width games).

Hits, misses, evictions and resident bytes are first-class
``repro.obs`` metric families (pass ``registry.scoped("serve.cache")``);
the same totals are kept as plain attributes so correctness tests and
the throughput benchmark can read them without a registry.  The
attribute/lock discipline is declared with ``# guarded-by:`` comments
and proven by staticcheck rule RA007 on every run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs import NULL_METRICS

__all__ = ["BlockCache"]


class BlockCache:
    """Thread-safe byte-budgeted LRU over decompressed blocks.

    Keys are hashable (the probe path uses ``(db_id, block_no)``); values
    are numpy arrays (anything with ``nbytes``).  All operations are
    serialized under one re-entrant lock; ``stats()`` and ``hit_rate``
    return consistent snapshots.
    """

    def __init__(self, budget_bytes: int, metrics=None):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self._metrics = NULL_METRICS if metrics is None else metrics
        self._lock = threading.RLock()
        # key -> (block, stored_bytes); stored_bytes is the encoded
        # size the block occupies on disk (== block.nbytes when the
        # store's codec is raw, or when the caller did not say).
        self._blocks: OrderedDict = OrderedDict()  # guarded-by: self._lock
        self.hits = 0  # guarded-by: self._lock
        self.misses = 0  # guarded-by: self._lock
        self.evictions = 0  # guarded-by: self._lock
        self.resident_bytes = 0  # guarded-by: self._lock
        self.packed_resident_bytes = 0  # guarded-by: self._lock
        self.peak_resident_bytes = 0  # guarded-by: self._lock
        self.lock_contended = 0  # guarded-by: self._lock
        self._metrics.set_gauge("budget_bytes", self.budget_bytes)
        self._publish()

    # ----------------------------------------------------------------- api

    def get(self, key, loader, stored_bytes=None):
        """The cached block for ``key``, calling ``loader()`` on a miss.

        The loader runs **under the cache lock** (single-flight): a
        second thread missing the same key waits and then hits.
        ``stored_bytes`` is the block's encoded size for the
        ``packed_resident_bytes`` gauge; it only matters on a miss, so
        it may be a zero-argument callable, evaluated only then.
        """
        self._acquire()
        try:
            entry = self._blocks.get(key)
            if entry is not None:
                self._blocks.move_to_end(key)
                self.hits += 1
                self._metrics.inc("hits")
                return entry[0]
            self.misses += 1
            self._metrics.inc("misses")
            block = loader()
            if callable(stored_bytes):
                stored_bytes = stored_bytes()
            self._insert(key, block, stored_bytes)
            self._publish()
            return block
        finally:
            self._lock.release()

    def get_many(self, keys, load, stored_bytes=None) -> list:
        """``[get(k, lambda: load(k), lambda: stored_bytes(k)) for k in
        keys]`` under **one** lock acquisition.

        Exactly that: the same LRU order, the same hits, misses,
        evictions and peak, loads single-flight under the lock, and
        ``stored_bytes`` (``None`` or a callable taking the key) asked
        only on a miss.  What a batch saves is the per-key lock
        round-trip, metric calls and gauge publish — the registry
        counters are bumped and the gauges published once, on the way
        out, also when a load raises (the keys before it stay counted,
        as with sequential ``get``s).
        """
        self._acquire()
        hits = misses = 0
        try:
            lookup = self._blocks.get
            touch = self._blocks.move_to_end
            found = []
            for key in keys:
                entry = lookup(key)
                if entry is not None:
                    touch(key)
                    hits += 1
                    found.append(entry[0])
                    continue
                misses += 1
                block = load(key)
                self._insert(
                    key, block,
                    None if stored_bytes is None else stored_bytes(key),
                )
                found.append(block)
            return found
        finally:
            self.hits += hits
            self.misses += misses
            if hits:
                self._metrics.inc("hits", hits)
            if misses:
                self._metrics.inc("misses", misses)
                self._publish()
            self._lock.release()

    def put(self, key, block, stored_bytes=None) -> None:
        """Insert (or replace) ``key``'s block and re-run eviction.

        Re-inserting an existing key **replaces** the entry: the old
        sizes are subtracted before the new ones are added, so repeated
        puts of one key never inflate ``resident_bytes`` (the
        double-counting regression the cache tests pin).
        """
        self._acquire()
        try:
            self._insert(key, block, stored_bytes)
            self._publish()
        finally:
            self._lock.release()

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._blocks

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def keys(self) -> list:
        """Current keys in eviction order (least recently used first)."""
        with self._lock:
            return list(self._blocks)

    def clear(self) -> None:
        self._acquire()
        try:
            self._blocks.clear()
            self.resident_bytes = 0
            self.packed_resident_bytes = 0
            self._publish()
        finally:
            self._lock.release()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Plain-dict counters (the server's ``stats`` op ships this).

        One consistent snapshot: every field is read under the lock, so
        ``hits + misses`` always equals the number of completed ``get``
        calls and the byte gauges match the resident block set exactly,
        even while other threads probe.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
                "resident_bytes": self.resident_bytes,
                "resident_blocks": len(self._blocks),
                "packed_resident_bytes": self.packed_resident_bytes,
                "peak_resident_bytes": self.peak_resident_bytes,
                "budget_bytes": self.budget_bytes,
                "lock_contended": self.lock_contended,
            }

    # ------------------------------------------------------------ internals

    def _acquire(self) -> None:  # acquires-lock: self._lock
        """Blocking acquire that counts contention.

        The non-blocking probe fails only when another thread holds the
        lock (re-entrant acquisition by the owner always succeeds), so
        ``lock_contended`` counts real cross-thread serialization, not
        a loader's recursion into the cache.
        """
        if self._lock.acquire(blocking=False):
            return
        self._lock.acquire()
        self.lock_contended += 1
        self._metrics.inc("lock_contended")

    def _insert(self, key, block, stored_bytes) -> None:  # holds-lock: self._lock
        """The one place an entry enters the cache: replace, account,
        raise the peak, evict.  Gauges are the caller's to publish."""
        nbytes = int(block.nbytes)
        stored = nbytes if stored_bytes is None else int(stored_bytes)
        old = self._blocks.pop(key, None)
        if old is not None:
            self.resident_bytes -= int(old[0].nbytes)
            self.packed_resident_bytes -= old[1]
        self._blocks[key] = (block, stored)
        self.resident_bytes += nbytes
        self.packed_resident_bytes += stored
        if self.resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes
        # Never evict the newest entry: a budget smaller than one block
        # still has to hold the block being probed (the "+ one block"
        # slack in the resident-bytes guarantee).
        evicted = 0
        while self.resident_bytes > self.budget_bytes and len(self._blocks) > 1:
            _, (victim, victim_stored) = self._blocks.popitem(last=False)
            self.resident_bytes -= int(victim.nbytes)
            self.packed_resident_bytes -= victim_stored
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._metrics.inc("evictions", evicted)

    def _publish(self) -> None:  # holds-lock: self._lock
        self._metrics.set_gauge("resident_bytes", self.resident_bytes)
        self._metrics.set_gauge("resident_blocks", len(self._blocks))
        self._metrics.set_gauge(
            "packed_resident_bytes", self.packed_resident_bytes
        )
        self._metrics.set_gauge("peak_resident_bytes", self.peak_resident_bytes)
