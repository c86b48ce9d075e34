"""Shared-memory fan-out substrate for multiprocess solving.

The paper's headline speedup hinges on driving the *per-position*
communication cost toward zero (message combining packs thousands of
updates into one Ethernet frame).  The modern-hardware analogue of that
overhead class is the pickle tax of a process pool: every worker result
is serialized in the child, shipped over a pipe, and deserialized in
the parent, so fanning a database scan or a set of threshold slices
across cores moves megabytes per task even though the parent only
needs a few integers of metadata.

:class:`ShmArena` removes that tax.  The parent allocates named numpy
arrays backed by ``multiprocessing.shared_memory`` segments before its
worker pool forks; the workers inherit the arena through a module
global and read their inputs from it and write their results directly
into their own *disjoint* slice of each array.  Pool results shrink to
small metadata tuples (ids, counts, wall times), and a task replayed
after a worker crash simply re-writes its own region — byte-identical,
because the region is owned by exactly one task (see
:mod:`repro.resilience`).

A :class:`~repro.core.multiproc.MultiprocessSolver` run allocates one
arena, sized for its largest database, and every database of the run
reuses it.  Allocation touches nothing: a new POSIX segment already
reads as zeros, and a page costs memory only once it is written.

The parent stays the owner of every segment: :meth:`ShmArena.close`
unlinks them all.  ``mmap`` refuses to unmap a segment while numpy
views of it are alive, so the parent copies results out (a local memcpy
— cheap compared to a pickle round-trip) and keeps no view past the
fan-out that filled it.

The arena is the only way fanned-out results come back: the fan-out
needs the ``fork`` start method, and every platform with ``fork`` has
``multiprocessing.shared_memory``.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmArena", "ShmRaceError"]


class ShmRaceError(RuntimeError):
    """Two tasks claimed overlapping arena regions (or one claimed out
    of bounds) — the disjointness invariant the zero-copy fan-out rests
    on is broken."""


class ShmArena:
    """A set of named shared-memory numpy arrays owned by the parent.

    Allocate arrays with :meth:`alloc` *before* the worker pool forks,
    publish the arena to workers through a module global, and close it
    (context manager or :meth:`close`) once results are copied out.
    Workers index the arena (``arena["status"]``) and write into their
    task's slice; they never allocate, close, or unlink.
    """

    def __init__(self, debug: bool = False):
        self._segments: dict[str, object] = {}
        self._arrays: dict[str, np.ndarray] = {}
        #: Total bytes allocated across all segments.
        self.nbytes = 0
        #: Race-detector mode: :meth:`claim` records each task's region
        #: in a shared ledger that :meth:`check_claims` validates.
        self.debug = bool(debug)
        self._claims_segment = None
        self._claims: np.ndarray | None = None
        self._claim_slots = 0
        self._claim_index: dict[str, int] = {}

    # ------------------------------------------------------------ lifecycle

    def alloc(self, name: str, shape, dtype) -> np.ndarray:
        """Create one shared array under ``name``.  It reads as zeros (a
        new segment is zero-filled by the OS, page by page on first
        touch), so nothing is written here."""
        if name in self._segments:
            raise ValueError(f"arena already holds an array named {name!r}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        segment = shared_memory.SharedMemory(
            create=True, size=max(nbytes, 1)
        )
        array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        self._segments[name] = segment
        self._arrays[name] = array
        self.nbytes += nbytes
        return array

    def close(self) -> None:
        """Drop all views and unlink every segment (idempotent).  Every
        name is unlinked before any mapping is closed, so nothing is left
        in ``/dev/shm`` even if a stray view makes a close fail."""
        self._arrays.clear()
        self._claims = None
        segments = list(self._segments.values())
        self._segments = {}
        if self._claims_segment is not None:
            segments.append(self._claims_segment)
            self._claims_segment = None
        for segment in segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        for segment in segments:
            segment.close()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- access

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    @property
    def segments(self) -> int:
        """Number of live shared-memory segments."""
        return len(self._segments)

    def take(self, name: str) -> np.ndarray:
        """Copy an array out of its segment (safe to keep after close)."""
        return np.array(self._arrays[name], copy=True)

    # ----------------------------------------------- debug claims ledger
    #
    # The zero-copy fan-out is only correct because every task writes a
    # *disjoint* region of each array.  In debug mode the ledger makes
    # that checkable at runtime: each worker records the flat
    # ``[start, stop)`` range it is about to write, into a ledger row
    # determined by its (task slot, array) pair — so a task replayed
    # after a SIGKILL overwrites its own earlier claim instead of
    # raising a false positive — and the parent validates all claims
    # for overlap before consuming the results, then clears the ledger
    # for the arena's next fan-out.

    _LEDGER_FIELDS = 3  # start, stop, owner (used-flag: stop >= start >= 0)

    def enable_claims(self, n_slots: int) -> None:
        """Allocate the ledger for ``n_slots`` tasks (call after every
        :meth:`alloc`, before the pool forks).  No-op unless ``debug``."""
        if not self.debug:
            return
        if self._claims_segment is not None:
            raise ValueError("claims ledger already enabled")
        self._claim_slots = int(n_slots)
        self._claim_index = {n: i for i, n in enumerate(self._arrays)}
        rows = max(self._claim_slots * len(self._claim_index), 1)
        nbytes = rows * self._LEDGER_FIELDS * 8
        # Deliberately not in self._segments/self.nbytes: the ledger is
        # instrumentation, and must not shift the shm_segments counter
        # or the byte accounting that debug and production runs share.
        self._claims_segment = shared_memory.SharedMemory(
            create=True, size=nbytes
        )
        ledger = np.ndarray((rows, self._LEDGER_FIELDS), dtype=np.int64,
                            buffer=self._claims_segment.buf)
        ledger[...] = -1  # start == -1 marks an unused row
        self._claims = ledger

    def claim(self, name: str, start: int, stop: int, slot: int,
              owner: int = 0) -> None:
        """Record (from a worker) that task ``slot`` is about to write
        ``array[start:stop]`` (flat indices).  Free when debug is off;
        raises :class:`ShmRaceError` immediately on an out-of-bounds or
        out-of-slot claim."""
        if self._claims is None:
            return
        size = self._arrays[name].size
        if not 0 <= start <= stop <= size:
            raise ShmRaceError(
                f"task {slot} (owner {owner}) claims {name!r}[{start}:"
                f"{stop}] outside the array's {size} elements"
            )
        if not 0 <= slot < self._claim_slots:
            raise ShmRaceError(
                f"claim on {name!r} names task slot {slot}, but the "
                f"ledger holds {self._claim_slots} slots"
            )
        row = slot * len(self._claim_index) + self._claim_index[name]
        self._claims[row] = (start, stop, owner)

    def check_claims(self) -> int:
        """Validate (in the parent) that all recorded claims are
        pairwise disjoint per array, then clear the ledger for the next
        fan-out; returns the number of claims checked.  Raises
        :class:`ShmRaceError` on the first overlap."""
        if self._claims is None:
            return 0
        n_arrays = len(self._claim_index)
        names = {i: n for n, i in self._claim_index.items()}
        checked = 0
        for arr_idx in range(n_arrays):
            rows = self._claims[arr_idx::n_arrays]
            used = [
                (int(s), int(e), int(o), slot)
                for slot, (s, e, o) in enumerate(rows)
                if s >= 0 and e > s  # empty claims cannot overlap
            ]
            checked += sum(1 for row in rows if row[0] >= 0)
            used.sort()
            for (s1, e1, o1, t1), (s2, e2, o2, t2) in zip(used, used[1:]):
                if e1 > s2:
                    name = names[arr_idx]
                    raise ShmRaceError(
                        f"overlapping claims on {name!r}: task {t1} "
                        f"(owner {o1}) wrote [{s1}:{e1}) and task {t2} "
                        f"(owner {o2}) wrote [{s2}:{e2})"
                    )
        self._claims[...] = -1
        return checked
