"""Per-database move-graph construction for capture games.

For one database of a :class:`~repro.games.base.CaptureGame` this module
separates each position's moves into

* a single **best exit** — the maximum over capturing moves (and the
  terminal rule) of ``capture - value(successor in a smaller database)``;
  thanks to the threshold formulation only the maximum is ever needed; and
* the **internal graph** — non-capturing moves within the database,
  stored as forward CSR adjacency plus its transpose for retrograde
  propagation.

The scan is chunked so peak memory stays bounded, and all inner work is
vectorized (millions of positions in plain Python would be hopeless
otherwise; see the HPC guides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..games.base import CaptureGame
from .values import NO_EXIT

__all__ = [
    "CSR",
    "ChunkParts",
    "DatabaseGraph",
    "build_database_graph",
    "scan_chunk_to_parts",
    "WorkCounters",
]


@dataclass
class CSR:
    """Compressed sparse row adjacency: ``indices[indptr[i]:indptr[i+1]]``."""

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0])

    def neighbors_of(self, idx: np.ndarray):
        """Batch gather: returns ``(row, neighbor)`` pairs with multiplicity.

        ``row[k]`` indexes into ``idx``; parallel edges appear once per
        edge, which the RA counters rely on.
        """
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        row = np.arange(idx.shape[0], dtype=np.int64).repeat(counts)
        # Output edge k is edge k - run_start of its run, and the runs
        # start at the exclusive prefix sums of ``counts``.
        shift = starts - counts.cumsum() + counts
        flat = np.arange(row.shape[0], dtype=np.int64) + shift[row]
        return row, self.indices[flat]

    @staticmethod
    def from_edges(n: int, src: np.ndarray, dst: np.ndarray) -> "CSR":
        """Build CSR from an edge list: bincount offsets, and each row's
        destinations in input order (what a stable argsort of ``src``
        gives).

        Sources that are already non-decreasing are that order, so
        ``dst`` is copied as it is.  Otherwise one int64 key per edge,
        ``src * E + edge_index``, is sorted with NumPy's (SIMD) sort:
        keys are distinct, so any sort puts equal sources in edge order.
        The key must fit in int64, so ``n * E >= 2**63`` is rejected
        before anything is allocated.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n_edges = int(src.shape[0])
        if int(n) * n_edges >= 1 << 63:
            raise ValueError(
                f"{n} nodes x {n_edges} edges overflows the int64 sort key"
            )
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if n_edges < 2 or (src[1:] >= src[:-1]).all():
            return CSR(indptr=indptr, indices=dst.copy())
        key = src * n_edges
        key += np.arange(n_edges, dtype=np.int64)
        key.sort()
        np.remainder(key, n_edges, out=key)
        return CSR(indptr=indptr, indices=dst[key])

    def transpose(self, n: int) -> "CSR":
        """Reverse adjacency over ``n`` nodes.

        ``n`` must cover both endpoints of every edge — at least the
        ``indptr.size - 1`` source rows, and every destination in
        ``indices`` — otherwise the reverse adjacency would silently
        drop nodes or edges.
        """
        n_rows = int(self.indptr.shape[0]) - 1
        if n < n_rows:
            raise ValueError(
                f"transpose over {n} nodes cannot hold the {n_rows} "
                f"source rows of this CSR"
            )
        if self.indices.size and int(self.indices.max()) >= n:
            raise ValueError(
                f"transpose over {n} nodes: destination index "
                f"{int(self.indices.max())} is out of range"
            )
        src = np.repeat(
            np.arange(self.indptr.shape[0] - 1, dtype=np.int64),
            np.diff(self.indptr),
        )
        return CSR.from_edges(n, self.indices, src)


@dataclass
class WorkCounters:
    """Operation counts accumulated while building/solving a database.

    These are the units the calibrated 1995 cost model converts into
    simulated seconds (:mod:`repro.analysis.calibration`).
    """

    positions_scanned: int = 0
    moves_generated: int = 0
    edges_internal: int = 0
    exit_lookups: int = 0

    def merge(self, other: "WorkCounters") -> None:
        self.positions_scanned += other.positions_scanned
        self.moves_generated += other.moves_generated
        self.edges_internal += other.edges_internal
        self.exit_lookups += other.exit_lookups


@dataclass
class DatabaseGraph:
    """Solver-ready view of one capture-game database."""

    db_id: object
    size: int
    best_exit: np.ndarray  # (size,) int16, NO_EXIT where none
    out_degree: np.ndarray  # (size,) int32: number of internal moves
    forward: CSR
    reverse: CSR
    work: WorkCounters

    def memory_bytes(self) -> int:
        """Bytes held by the construction-time state (the paper's memory
        bottleneck: this is what gets distributed over processors)."""
        return (
            self.best_exit.nbytes
            + self.out_degree.nbytes
            + self.forward.indptr.nbytes
            + self.forward.indices.nbytes
            + self.reverse.indptr.nbytes
            + self.reverse.indices.nbytes
        )


@dataclass
class ChunkParts:
    """One scanned chunk reduced to solver-ready graph parts.

    ``best_exit``/``out_degree`` are chunk-local (length ``stop - start``,
    positions ``start + i``); ``src``/``dst`` carry *global* position
    indices, emitted in (position, move-slot) order so concatenating
    chunks in scan order reproduces the unchunked edge list exactly.
    The work counts follow :class:`WorkCounters` semantics:
    ``moves_generated`` counts every legal move of the chunk and
    ``exit_lookups`` every capturing move whose successor value was
    looked up in a lower database.
    """

    start: int
    best_exit: np.ndarray  # (stop-start,) int16, NO_EXIT where none
    out_degree: np.ndarray  # (stop-start,) int32
    src: np.ndarray  # (E,) int64 global internal-edge sources
    dst: np.ndarray  # (E,) int64 global internal-edge destinations
    moves_generated: int
    exit_lookups: int

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])


def scan_chunk_to_parts(
    game: CaptureGame, db_id, lower_values: Mapping, start: int, stop: int
) -> ChunkParts:
    """Scan positions ``start <= i < stop`` of ``db_id`` into graph parts.

    The single implementation of the terminal/capture/internal move
    handling, shared by :func:`build_database_graph` and the scan
    fan-out of :class:`~repro.core.multiproc.MultiprocessSolver`, so the
    scan semantics (and the work counters) cannot drift between the
    sequential and multiprocess backends.
    """
    scan = game.scan_chunk(db_id, start, stop)
    # Terminal rule: an immediate, exact exit value.
    best_exit = np.where(scan.terminal, scan.terminal_value, NO_EXIT).astype(np.int16)
    # Capturing moves: exits into smaller databases, one value per move.
    cap_mask = scan.legal & (scan.capture > 0)
    caps = scan.capture[cap_mask]
    if caps.size:
        succ = scan.succ_index[cap_mask]
        vals = np.empty(caps.shape[0], dtype=np.int16)
        for amount in np.flatnonzero(np.bincount(caps)):
            m = caps == amount
            target = game.exit_db(db_id, int(amount))
            vals[m] = amount - lower_values[target][succ[m]]
        exits = np.full(cap_mask.shape, NO_EXIT, dtype=np.int16)
        exits[cap_mask] = vals
        np.maximum(best_exit, exits.max(axis=1), out=best_exit)
    # Internal (non-capturing) moves.
    int_mask = scan.legal & (scan.capture == 0)
    r, c = np.nonzero(int_mask)
    return ChunkParts(
        start=start,
        best_exit=best_exit,
        out_degree=int_mask.sum(axis=1, dtype=np.int32),
        src=r.astype(np.int64) + start,
        dst=scan.succ_index[r, c],
        moves_generated=int(scan.legal.sum()),
        exit_lookups=int(caps.shape[0]),
    )


def build_database_graph(
    game: CaptureGame,
    db_id,
    lower_values: Mapping,
    chunk: int = 1 << 15,
) -> DatabaseGraph:
    """Scan database ``db_id`` and build its :class:`DatabaseGraph`.

    ``lower_values`` maps already-solved database ids to their value
    arrays; every capturing move is folded into ``best_exit`` here.
    """
    size = game.db_size(db_id)
    best_exit = np.full(size, NO_EXIT, dtype=np.int16)
    out_degree = np.zeros(size, dtype=np.int32)
    srcs, dsts = [], []
    work = WorkCounters()
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        parts = scan_chunk_to_parts(game, db_id, lower_values, start, stop)
        work.positions_scanned += stop - start
        work.moves_generated += parts.moves_generated
        work.exit_lookups += parts.exit_lookups
        best_exit[start:stop] = parts.best_exit
        out_degree[start:stop] = parts.out_degree
        srcs.append(parts.src)
        dsts.append(parts.dst)
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
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
