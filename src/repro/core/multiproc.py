"""Actual-parallel solving on the host machine (multiprocessing).

Everything else in :mod:`repro.core.parallel` simulates a 1995 cluster;
this module is for users who just want their databases faster on a
modern multicore box.  The threshold runs of one database are mutually
independent, so they fan out across a process pool (``fork`` start
method: the prepared graph is inherited copy-on-write, no pickling of
the big arrays on the way in).  Each database's pending thresholds are
split into at most one strided slice per worker, and each slice is one
:func:`~repro.core.kernel.seed_thresholds` + one
:func:`~repro.core.kernel.solve_kernel` pass — the same two calls
:class:`~repro.core.sequential.SequentialSolver` makes over all of them.

Results avoid pickling on the way *out* too: the parent allocates a
:class:`~repro.core.shm.ShmArena` and each worker writes its slice's
status rows / scan-chunk arrays directly into its own disjoint region,
so pool results shrink to small metadata tuples — the modern analogue
of the paper's message combining, which likewise exists to drive
per-position communication cost toward zero.  The bytes that skipped
the pickle path are reported as ``multiproc.ipc_bytes_saved``.

Both fan-outs (the scan chunks of graph construction and the threshold
slices) go through a :class:`~repro.resilience.SupervisedPool`: a child
killed mid-task costs one task replay, not the database, and shows up
as ``resilience.*`` counters in the metrics registry.  A replayed task
re-writes only its own arena region, so retries after a SIGKILL stay
bit-identical.  An optional :class:`~repro.resilience.RoundStore`
checkpoints each threshold's labels as its slice completes, so a killed
build resumes mid-database.

Falls back to in-process solving where ``fork`` is unavailable.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from itertools import accumulate

import numpy as np

from ..games.base import CaptureGame
from ..obs import NULL_METRICS, names
from ..resilience import RetryPolicy, SupervisedPool
from .graph import build_database_graph, scan_chunk_to_parts
from .kernel import RAProblem, csr_provider, seed_thresholds, solve_kernel
from .shm import ShmArena
from .values import exit_values, status_values

__all__ = ["MultiprocessSolver"]

# Module globals inherited by forked workers (set per database).
_GRAPH = None
_SCAN = None  # (game, db_id, lower_values)
_FAULTS = None  # FaultPlan under test, None in production
_ARENA = None  # ShmArena of the running fan-out
_EDGE_CAP = 0  # per-chunk capacity of the arena's src/dst edge regions


def _solve_thresholds(graph, thresholds):
    """One kernel pass over ``thresholds``: ``(T, n)`` status rows plus
    ``(rounds, parent_notifications, seconds)``."""
    t0 = time.perf_counter()
    status, counts, eligible = seed_thresholds(
        graph.best_exit, graph.out_degree, thresholds
    )
    result = solve_kernel(RAProblem(
        graph.size, status, counts, csr_provider(graph.reverse), eligible
    ))
    return result.status, (
        result.rounds, result.parent_notifications,
        time.perf_counter() - t0,
    )


def _solve_slice(task):
    """Forked worker: one slice of thresholds in one kernel pass.

    The status rows land in the slice's own block of the shared
    ``status`` array (rows ``[row, row + len(thresholds))``); only the
    kernel stats and the child wall time are pickled back.
    """
    slot, row, thresholds = task
    if _FAULTS is not None and _FAULTS.worker_kill is not None:
        for t in thresholds:
            _FAULTS.worker_kill.maybe_kill("threshold", t)
    status, stats = _solve_thresholds(_GRAPH, thresholds)
    n = _GRAPH.size
    stop = row + len(thresholds)
    _ARENA.claim("status", row * n, stop * n, slot=slot, owner=slot)
    _ARENA["status"][row:stop] = status
    return stats


def _scan_range(task):
    """Forked worker: scan one chunk of the database into graph parts.

    The chunk's arrays are written straight into the parent-allocated
    segments (``best_exit``/``out_degree`` at the chunk's position
    range, edges at the chunk's span of ``src``/``dst``).  The trailing
    element of the return tuple is the chunk's wall time in the child
    process, aggregated by the parent into the metrics registry.
    """
    chunk_no, (start, stop) = task
    if _FAULTS is not None and _FAULTS.worker_kill is not None:
        _FAULTS.worker_kill.maybe_kill("chunk", chunk_no)
    game, db_id, lower_values = _SCAN
    t0 = time.perf_counter()
    parts = scan_chunk_to_parts(game, db_id, lower_values, start, stop)
    counts = (parts.moves_generated, parts.exit_lookups)
    span = chunk_no * _EDGE_CAP
    _ARENA.claim("best_exit", start, stop, slot=chunk_no, owner=chunk_no)
    _ARENA.claim("out_degree", start, stop, slot=chunk_no, owner=chunk_no)
    _ARENA.claim("src", span, span + parts.n_edges,
                 slot=chunk_no, owner=chunk_no)
    _ARENA.claim("dst", span, span + parts.n_edges,
                 slot=chunk_no, owner=chunk_no)
    _ARENA["best_exit"][start:stop] = parts.best_exit
    _ARENA["out_degree"][start:stop] = parts.out_degree
    _ARENA["src"][span:span + parts.n_edges] = parts.src
    _ARENA["dst"][span:span + parts.n_edges] = parts.dst
    return chunk_no, start, parts.n_edges, counts, time.perf_counter() - t0


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
        #: Retry/rebuild bounds for the supervised pools.
        self.policy = policy if policy is not None else RetryPolicy()
        #: Optional :class:`~repro.resilience.FaultPlan` (chaos testing).
        self.faults = faults
        #: Scan fan-out granularity (positions per chunk).
        self.chunk = int(chunk)
        #: Arena race detector (the claims ledger); the CLI exposes it
        #: as ``--shm-debug``.
        self.shm_debug = bool(shm_debug)
        try:
            self._context = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = None

    def solve_database(self, db_id, lower_values, round_store=None) -> np.ndarray:
        """Solve one database; ``round_store`` (a
        :class:`~repro.resilience.RoundStore`) resumes and checkpoints
        individual threshold runs for crash-safe long solves."""
        m = self.metrics
        t_db = time.perf_counter()
        graph = self._build_graph(db_id, lower_values)
        m.inc(names.MULTIPROC_DATABASES)
        m.inc(names.MULTIPROC_POSITIONS_SCANNED, graph.work.positions_scanned)
        m.inc(names.MULTIPROC_MOVES_GENERATED, graph.work.moves_generated)
        m.inc(names.MULTIPROC_EDGES_INTERNAL, graph.work.edges_internal)
        m.inc(names.MULTIPROC_EXIT_LOOKUPS, graph.work.exit_lookups)
        bound = self.game.value_bound(db_id)
        if bound == 0:
            values = exit_values(graph.best_exit)
            m.observe_seconds(
                names.MULTIPROC_SOLVE_DATABASE, time.perf_counter() - t_db
            )
            return values
        thresholds = list(range(1, bound + 1))
        statuses: dict = {}
        if round_store is not None:
            statuses = {
                t: s for t, s in round_store.load().items() if t in thresholds
            }
            if statuses:
                m.inc(names.RESILIENCE_ROUNDS_RESUMED, len(statuses))
        todo = [t for t in thresholds if t not in statuses]

        def record(rows, status, kernel_stats):
            m.inc(names.MULTIPROC_PROPAGATION_ROUNDS, kernel_stats[0])
            m.inc(names.MULTIPROC_PARENT_NOTIFICATIONS, kernel_stats[1])
            m.observe_seconds(names.MULTIPROC_THRESHOLD_SECONDS, kernel_stats[2])
            for t, row in zip(rows, status):
                statuses[t] = row
                if round_store is not None:
                    round_store.put(t, row)

        k = 1 if self._context is None else min(self.workers, len(todo))
        if k > 1:
            self._fan_out(graph, [todo[i::k] for i in range(k)], record)
        elif todo:
            record(todo, *_solve_thresholds(graph, todo))
        m.inc(names.MULTIPROC_THRESHOLDS, len(thresholds))
        values = status_values(np.stack([statuses[t] for t in thresholds]))
        m.observe_seconds(names.MULTIPROC_SOLVE_DATABASE, time.perf_counter() - t_db)
        return values

    def solve(self, target) -> dict:
        values: dict = {}
        for db_id in self.game.db_sequence(target):
            values[db_id] = self.solve_database(db_id, values)
        return values

    # ------------------------------------------------------------ internals

    def _fan_out(self, graph, slices, record):
        """Solve each threshold slice in one pool task; slice ``i``'s
        rows live in its own contiguous block of the arena."""
        global _GRAPH, _FAULTS, _ARENA
        m = self.metrics
        starts = list(accumulate((len(s) for s in slices), initial=0))
        tasks = [(i, starts[i], s) for i, s in enumerate(slices)]
        arena = ShmArena(debug=self.shm_debug)
        arena.alloc("status", (starts[-1], graph.size), np.uint8)
        arena.enable_claims(len(slices))
        m.inc(names.MULTIPROC_SHM_SEGMENTS, arena.segments)

        def on_result(i, kernel_stats):
            # Copy the slice's rows out of the arena: a local memcpy
            # instead of a cross-process pickle.
            block = np.array(arena["status"][starts[i]:starts[i + 1]], copy=True)
            m.inc(names.MULTIPROC_IPC_BYTES_SAVED, block.nbytes)
            record(slices[i], block, kernel_stats)

        _GRAPH, _FAULTS, _ARENA = graph, self.faults, arena
        try:
            with SupervisedPool(
                _solve_slice,
                max_workers=len(slices),
                mp_context=self._context,
                policy=self.policy,
                metrics=m,
            ) as pool:
                pool.map(tasks, on_result=on_result)
            if arena.debug:
                # Guarded: the counter must not appear (even at 0) in
                # non-debug runs, or counter-parity assertions between
                # debug and production runs would see a phantom key.
                m.inc(names.MULTIPROC_SHM_CLAIMS_CHECKED, arena.check_claims())
        finally:
            _GRAPH = _FAULTS = _ARENA = None
            arena.close()

    def _build_graph(self, db_id, lower_values, chunk: int | None = None):
        """Graph construction with the scan fanned out across processes
        (the scan is the dominant cost for awari-sized databases)."""
        global _SCAN, _FAULTS, _ARENA, _EDGE_CAP
        chunk = self.chunk if chunk is None else chunk
        size = self.game.db_size(db_id)
        n_chunks = (size + chunk - 1) // chunk
        if self._context is None or self.workers <= 1 or n_chunks < 2:
            return build_database_graph(self.game, db_id, lower_values)
        from .graph import CSR, DatabaseGraph, WorkCounters

        tasks = [
            (i, (start, min(start + chunk, size)))
            for i, start in enumerate(range(0, size, chunk))
        ]
        work = WorkCounters(positions_scanned=size)
        # Every position has at most one internal move per move slot,
        # so chunk * slots bounds any chunk's edge count.
        slots = int(self.game.scan_chunk(db_id, 0, 1).legal.shape[1])
        edge_cap = chunk * slots
        arena = ShmArena(debug=self.shm_debug)
        arena.alloc("best_exit", (size,), np.int16)
        arena.alloc("out_degree", (size,), np.int32)
        arena.alloc("src", (n_chunks * edge_cap,), np.int64)
        arena.alloc("dst", (n_chunks * edge_cap,), np.int64)
        arena.enable_claims(n_chunks)
        self.metrics.inc(names.MULTIPROC_SHM_SEGMENTS, arena.segments)
        _SCAN = (self.game, db_id, lower_values)
        _FAULTS = self.faults
        _ARENA, _EDGE_CAP = arena, edge_cap
        try:
            with SupervisedPool(
                _scan_range,
                max_workers=self.workers,
                mp_context=self._context,
                policy=self.policy,
                metrics=self.metrics,
            ) as pool:
                scanned = pool.map(tasks)
            if arena.debug:
                self.metrics.inc(names.MULTIPROC_SHM_CLAIMS_CHECKED,
                                 arena.check_claims())
            best_exit, out_degree, src, dst = self._collect_scan(
                scanned, arena, chunk, edge_cap, size, work
            )
        finally:
            _SCAN = None
            _FAULTS = None
            _ARENA, _EDGE_CAP = None, 0
            arena.close()
        forward = CSR.from_edges(size, src, dst)
        reverse = CSR.from_edges(size, dst, src)
        work.edges_internal = forward.n_edges
        return DatabaseGraph(
            db_id=db_id,
            size=size,
            best_exit=best_exit,
            out_degree=out_degree,
            forward=forward,
            reverse=reverse,
            work=work,
        )

    def _collect_scan(self, scanned, arena, chunk, edge_cap, size, work):
        """Copy chunk results out of the arena into graph arrays.

        Chunks arrive in task order and edges are concatenated in that
        order, so the edge list — and therefore the CSR — is bit-identical
        to a sequential :func:`build_database_graph` of the same database.
        """
        m = self.metrics
        srcs, dsts = [], []
        best_exit = arena.take("best_exit")
        out_degree = arena.take("out_degree")
        for chunk_no, start, n_edges, counts, child_s in scanned:
            work.moves_generated += counts[0]
            work.exit_lookups += counts[1]
            m.inc(names.MULTIPROC_SCAN_CHUNKS)
            m.observe_seconds(names.MULTIPROC_SCAN_SECONDS, child_s)
            span = chunk_no * edge_cap
            srcs.append(np.array(arena["src"][span:span + n_edges], copy=True))
            dsts.append(np.array(arena["dst"][span:span + n_edges], copy=True))
            stop = min(start + chunk, size)
            m.inc(
                names.MULTIPROC_IPC_BYTES_SAVED,
                (stop - start) * (2 + 4) + 16 * n_edges,
            )
        src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
        dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
        return best_exit, out_degree, src, dst
