"""Actual-parallel solving on the host machine (multiprocessing).

Everything else in :mod:`repro.core.parallel` simulates a 1995 cluster;
this module is for users who just want their databases faster on a
modern multicore box.  A solve forks once: :meth:`MultiprocessSolver.session`
allocates one :class:`~repro.core.shm.ShmArena` sized for the run's
largest database, publishes it through the fork-inherited module
globals below, and builds one :class:`~repro.resilience.SupervisedPool`
whose workers serve every database — long-lived ranks making passes
over preallocated memory, as in Pentago's solver.  Each database makes
two trips through the pool:

* **scan** — ``max(ceil(size / chunk), workers)`` chunks; each task
  reads the lower databases' values from the arena and writes its
  ``best_exit`` / ``out_degree`` rows and its edges into its own region.
  The parent builds the CSRs and publishes the reverse one.
* **thresholds** — at most one strided slice of the pending thresholds
  per worker, each one :func:`~repro.core.kernel.seed_thresholds` + one
  :func:`~repro.core.kernel.solve_kernel` pass (the two calls
  :class:`~repro.core.sequential.SequentialSolver` makes over all of
  them), writing its status rows into its own block of the arena.

Tasks carry only db ids, offsets and slices, and results are small
metadata tuples — the modern analogue of the paper's message combining.
The array bytes kept off the pipe are reported as
``multiproc.ipc_bytes_saved``.  A child killed mid-task costs one task
replay: the rebuilt pool re-forks from the parent, whose globals still
hold the arena, and a replayed task re-writes only its own region, so
the result stays bit-identical.  An optional
:class:`~repro.resilience.RoundStore` checkpoints each threshold's
labels as its slice completes, so a killed build resumes mid-database.

With one worker, or where ``fork`` is unavailable, databases are solved
in process.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

from ..games.base import CaptureGame
from ..obs import NULL_METRICS
from ..resilience import RetryPolicy, SupervisedPool
from .graph import (
    CSR,
    DatabaseGraph,
    WorkCounters,
    build_database_graph,
    scan_chunk_to_parts,
)
from .kernel import RAProblem, csr_provider, seed_thresholds, solve_kernel
from .shm import ShmArena
from .values import exit_values, status_values

__all__ = ["MultiprocessSolver"]

# Module globals inherited by forked workers (set once per session).
_GAME = None
_FAULTS = None  # FaultPlan under test, None in production
_ARENA = None  # ShmArena of the running session
_LAYOUT = None  # db id -> (values offset, size, move slots) in the arena


def _run(task):
    """Forked worker entry point: ``task`` is ``(function, payload)``."""
    fn, payload = task
    return fn(payload)


def _solve_thresholds(size, best_exit, out_degree, reverse, thresholds):
    """One kernel pass over ``thresholds``: ``(T, size)`` status rows
    plus ``(rounds, parent_notifications, seconds)``."""
    t0 = time.perf_counter()
    status, counts, eligible = seed_thresholds(best_exit, out_degree, thresholds)
    result = solve_kernel(RAProblem(
        size, status, counts, csr_provider(reverse), eligible
    ))
    return result.status, (
        result.rounds, result.parent_notifications,
        time.perf_counter() - t0,
    )


def _scan_chunk(task):
    """Forked worker: scan positions ``[start, stop)`` of one database.

    The lower databases' values are read from the arena.  The chunk's
    ``best_exit``/``out_degree`` rows land at its position range, its
    edges at ``src``/``dst[span:]``; only counts and the child wall time
    are pickled back.
    """
    db_id, chunk_no, start, stop, span = task
    if _FAULTS is not None and _FAULTS.worker_kill is not None:
        _FAULTS.worker_kill.maybe_kill("chunk", chunk_no)
    t0 = time.perf_counter()
    values = _ARENA["values"]
    lower = {d: values[off:off + n] for d, (off, n, _) in _LAYOUT.items()}
    parts = scan_chunk_to_parts(_GAME, db_id, lower, start, stop)
    end = span + parts.n_edges
    for name, lo, hi in (("best_exit", start, stop), ("out_degree", start, stop),
                         ("src", span, end), ("dst", span, end)):
        _ARENA.claim(name, lo, hi, slot=chunk_no, owner=chunk_no)
    _ARENA["best_exit"][start:stop] = parts.best_exit
    _ARENA["out_degree"][start:stop] = parts.out_degree
    _ARENA["src"][span:end] = parts.src
    _ARENA["dst"][span:end] = parts.dst
    counts = (parts.moves_generated, parts.exit_lookups)
    return parts.n_edges, counts, time.perf_counter() - t0


def _solve_slice(task):
    """Forked worker: one slice of thresholds in one kernel pass over
    the database graph the parent published in the arena.

    The status rows land in the slice's own block of the shared
    ``status`` array (rows ``[row, row + len(thresholds))``); only the
    kernel stats and the child wall time are pickled back.
    """
    db_id, n_edges, slot, row, thresholds = task
    if _FAULTS is not None and _FAULTS.worker_kill is not None:
        for t in thresholds:
            _FAULTS.worker_kill.maybe_kill("threshold", t)
    n = _LAYOUT[db_id][1]
    reverse = CSR(indptr=_ARENA["rev_indptr"][:n + 1],
                  indices=_ARENA["rev_indices"][:n_edges])
    status, stats = _solve_thresholds(
        n, _ARENA["best_exit"][:n], _ARENA["out_degree"][:n], reverse,
        thresholds,
    )
    lo, hi = row * n, (row + len(thresholds)) * n
    _ARENA.claim("status", lo, hi, slot=slot, owner=slot)
    _ARENA["status"][lo:hi] = status.ravel()
    return stats


class MultiprocessSolver:
    """Threshold-parallel database construction on real cores."""

    def __init__(
        self,
        game: CaptureGame,
        workers: int | None = None,
        metrics=None,
        policy: RetryPolicy | None = None,
        faults=None,
        chunk: int = 1 << 15,
        shm_debug: bool = False,
    ):
        self.game = game
        self.workers = workers or mp.cpu_count()
        #: Registry under the ``multiproc.`` prefix.  Per-process wall
        #: times land in the (non-deterministic) timers family; the
        #: counters stay deterministic.  Supervision counters land under
        #: ``resilience.``.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Retry/rebuild bounds for the supervised pool.
        self.policy = policy if policy is not None else RetryPolicy()
        #: Optional :class:`~repro.resilience.FaultPlan` (chaos testing).
        self.faults = faults
        #: Scan fan-out granularity (positions per chunk, at most).
        self.chunk = int(chunk)
        #: Arena race detector (the claims ledger); the CLI exposes it
        #: as ``--shm-debug``.
        self.shm_debug = bool(shm_debug)
        try:
            self._context = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = None
        self._pool: SupervisedPool | None = None
        self._arena: ShmArena | None = None
        self._layout: dict = {}
        self._published: set = set()

    def solve(self, target) -> dict:
        sequence = list(self.game.db_sequence(target))
        values: dict = {}
        with self.session(sequence):
            for db_id in sequence:
                values[db_id] = self.solve_database(db_id, values)
        return values

    @contextmanager
    def session(self, db_ids):
        """Fork once for a run over ``db_ids``: every
        :meth:`solve_database` call inside shares one arena and one
        pool.  Re-entering an open session is a no-op; with one worker
        (or without ``fork``) there is nothing to share."""
        if self._pool is not None or self._context is None or self.workers <= 1:
            yield
            return
        global _GAME, _FAULTS, _ARENA, _LAYOUT
        try:
            self._arena = self._alloc_arena(list(dict.fromkeys(db_ids)))
            self.metrics.inc("multiproc.shm_segments", self._arena.segments)
            _GAME, _FAULTS, _ARENA, _LAYOUT = (
                self.game, self.faults, self._arena, self._layout)
            with SupervisedPool(
                _run,
                max_workers=self.workers,
                mp_context=self._context,
                policy=self.policy,
            ) as pool:
                self._pool = pool
                yield
        finally:
            arena, self._arena, self._pool = self._arena, None, None
            self._layout, self._published = {}, set()
            _GAME = _FAULTS = _ARENA = _LAYOUT = None
            if arena is not None:
                arena.close()

    def solve_database(self, db_id, lower_values, round_store=None) -> np.ndarray:
        """Solve one database; ``round_store`` (a
        :class:`~repro.resilience.RoundStore`) resumes and checkpoints
        individual threshold runs for crash-safe long solves.  Outside
        a :meth:`session` the call opens one of its own."""
        with self.session([*lower_values, db_id]):
            return self._solve_database(db_id, lower_values, round_store)

    # ------------------------------------------------------------ internals

    def _solve_database(self, db_id, lower_values, round_store):
        m = self.metrics
        t_db = time.perf_counter()
        graph = self._build_graph(db_id, lower_values)
        m.inc("multiproc.databases")
        m.inc("multiproc.positions_scanned", graph.work.positions_scanned)
        m.inc("multiproc.moves_generated", graph.work.moves_generated)
        m.inc("multiproc.edges_internal", graph.work.edges_internal)
        m.inc("multiproc.exit_lookups", graph.work.exit_lookups)
        bound = self.game.value_bound(db_id)
        if bound == 0:
            values = exit_values(graph.best_exit)
            m.observe_seconds(
                "multiproc.solve_database", time.perf_counter() - t_db
            )
            return values
        thresholds = list(range(1, bound + 1))
        statuses: dict = {}
        if round_store is not None:
            statuses = {
                t: s for t, s in round_store.load().items() if t in thresholds
            }
            if statuses:
                m.inc("resilience.rounds_resumed", len(statuses))
        todo = [t for t in thresholds if t not in statuses]

        def record(rows, status, kernel_stats):
            m.inc("multiproc.propagation_rounds", kernel_stats[0])
            m.inc("multiproc.parent_notifications", kernel_stats[1])
            m.observe_seconds("multiproc.threshold_seconds", kernel_stats[2])
            for t, row in zip(rows, status):
                statuses[t] = row
                if round_store is not None:
                    round_store.put(t, row)

        if todo and self._pool is not None:
            self._fan_out(graph, todo, record)
        elif todo:
            record(todo, *_solve_thresholds(
                graph.size, graph.best_exit, graph.out_degree, graph.reverse,
                todo,
            ))
        m.inc("multiproc.thresholds", len(thresholds))
        values = status_values(np.stack([statuses[t] for t in thresholds]))
        m.observe_seconds("multiproc.solve_database", time.perf_counter() - t_db)
        return values

    def _chunk_starts(self, size: int) -> range:
        """Where a database's scan tasks start: every ``min(chunk,
        ceil(size / workers))`` positions, so there are ``max(ceil(size
        / chunk), workers)`` of them (up to rounding) and each one is a
        chunk of :func:`build_database_graph` when the database is big."""
        return range(0, size, min(self.chunk, -(-size // self.workers)))

    def _alloc_arena(self, db_ids) -> ShmArena:
        """One arena for every database in ``db_ids``: a values slice
        per database, and graph / edge / status regions sized for the
        largest one (the databases are solved one at a time)."""
        offset = largest = edges = rows = 0
        claim_slots = self.workers
        for db_id in db_ids:
            size = self.game.db_size(db_id)
            # A position has at most one internal move per move slot.
            slots = int(self.game.scan_chunk(db_id, 0, 1).legal.shape[1])
            self._layout[db_id] = (offset, size, slots)
            offset += size
            largest = max(largest, size)
            edges = max(edges, size * slots)
            rows = max(rows, size * self.game.value_bound(db_id))
            claim_slots = max(claim_slots, len(self._chunk_starts(size)))
        arena = ShmArena(debug=self.shm_debug)
        try:
            arena.alloc("values", (offset,), np.int16)
            arena.alloc("best_exit", (largest,), np.int16)
            arena.alloc("out_degree", (largest,), np.int32)
            arena.alloc("src", (edges,), np.int64)
            arena.alloc("dst", (edges,), np.int64)
            arena.alloc("rev_indptr", (largest + 1,), np.int64)
            arena.alloc("rev_indices", (edges,), np.int64)
            arena.alloc("status", (rows,), np.uint8)
            arena.enable_claims(claim_slots)
        except BaseException:
            arena.close()
            raise
        return arena

    def _map(self, tasks, on_result=None) -> list:
        """Run tasks on the session's pool and validate the arena
        claims.  The pool counts into the solver's registry of the
        moment (a pipeline swaps it per database)."""
        self._pool.metrics = self.metrics
        results = self._pool.map(tasks, on_result=on_result)
        if self._arena.debug:
            # Guarded: the counter must not appear (even at 0) in
            # non-debug runs, or counter-parity assertions between
            # debug and production runs would see a phantom key.
            self.metrics.inc("multiproc.shm_claims_checked",
                             self._arena.check_claims())
        return results

    def _fan_out(self, graph, todo, record):
        """Solve the pending thresholds in ``k = min(workers, pending)``
        strided slices, one pool task each; slice ``i``'s rows live in
        its own contiguous block of the arena's ``status`` array."""
        m = self.metrics
        n = graph.size
        k = min(self.workers, len(todo))
        slices = [todo[i::k] for i in range(k)]
        starts = list(accumulate((len(s) for s in slices), initial=0))
        tasks = [
            (_solve_slice, (graph.db_id, graph.reverse.n_edges, i, starts[i], s))
            for i, s in enumerate(slices)
        ]

        def on_result(i, kernel_stats):
            # Copy the slice's rows out of the arena: a local memcpy
            # instead of a cross-process pickle.
            block = self._arena["status"][starts[i] * n:starts[i + 1] * n].copy()
            m.inc("multiproc.ipc_bytes_saved", block.nbytes)
            record(slices[i], block.reshape(-1, n), kernel_stats)

        self._map(tasks, on_result)

    def _build_graph(self, db_id, lower_values) -> DatabaseGraph:
        """Graph construction with the scan fanned out across the pool
        (the scan is the dominant cost for awari-sized databases).

        Chunks arrive in task order and edges are concatenated in that
        order, so the edge list — and therefore the CSR — is bit-identical
        to a sequential :func:`build_database_graph` of the same database.
        The reverse CSR is published to the arena for the threshold
        fan-out.
        """
        with self.session([*lower_values, db_id]):
            if self._pool is None:
                return build_database_graph(
                    self.game, db_id, lower_values, chunk=self.chunk)
            return self._scan(db_id, lower_values)

    def _scan(self, db_id, lower_values) -> DatabaseGraph:
        m = self.metrics
        arena = self._arena
        for d, (off, n, _) in self._layout.items():
            if d not in self._published and d in lower_values:
                arena["values"][off:off + n] = lower_values[d]
                self._published.add(d)
        _, size, slots = self._layout[db_id]
        bounds = [*self._chunk_starts(size), size]
        tasks = [
            (_scan_chunk, (db_id, i, lo, hi, lo * slots))
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        scanned = self._map(tasks)
        work = WorkCounters(positions_scanned=size)
        spans = []
        for (n_edges, counts, child_s), lo, hi in zip(scanned, bounds, bounds[1:]):
            work.moves_generated += counts[0]
            work.exit_lookups += counts[1]
            m.inc("multiproc.scan_chunks")
            m.observe_seconds("multiproc.scan_seconds", child_s)
            m.inc("multiproc.ipc_bytes_saved",
                  (hi - lo) * (2 + 4) + 16 * n_edges)
            spans.append(slice(lo * slots, lo * slots + n_edges))
        src = np.concatenate([arena["src"][span] for span in spans])
        dst = np.concatenate([arena["dst"][span] for span in spans])
        forward = CSR.from_edges(size, src, dst)
        reverse = CSR.from_edges(size, dst, src)
        arena["rev_indptr"][:size + 1] = reverse.indptr
        arena["rev_indices"][:reverse.n_edges] = reverse.indices
        work.edges_internal = forward.n_edges
        return DatabaseGraph(
            db_id=db_id,
            size=size,
            best_exit=arena["best_exit"][:size].copy(),
            out_degree=arena["out_degree"][:size].copy(),
            forward=forward,
            reverse=reverse,
            work=work,
        )
