"""The canonical metric-name catalog and its generator.

``repro.obs`` names are plain strings at every call site, which is
exactly how the sequential and multiprocess builders once drifted apart
(PR 4 re-aligned ``moves_generated`` and ``exit_lookups`` by hand).
This module is the single declarative source of truth for every
counter, gauge, histogram and timer the repo emits:

* :data:`CATALOG` — one :class:`Entry` per static metric name, with the
  family it belongs to and a one-line description;
* :data:`DYNAMIC` — the few families whose final component is computed
  at runtime (per-tag send counts, per-op request counts), declared as
  name *prefixes* plus representative examples;
* :func:`generate_source` — renders the generated module
  ``src/repro/obs/names.py`` (constants + frozensets) from the tables,
  so production code imports names instead of retyping them;
* :func:`doc_drift` — cross-checks ``docs/OBSERVABILITY.md`` against
  the catalog, so the documentation cannot mention a metric the code
  no longer emits.

The RA003 checker (:mod:`repro.staticcheck.rules_metrics`) validates
every literal passed to ``metrics.inc`` / ``set_gauge`` against this
catalog; regenerate ``names.py`` with::

    python -m repro.staticcheck.catalog --write

A test asserts the committed ``names.py`` matches the generator output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Entry",
    "DynamicEntry",
    "CATALOG",
    "DYNAMIC",
    "generate_source",
    "names_path",
    "doc_drift",
]


@dataclass(frozen=True)
class Entry:
    """One canonical metric name."""

    name: str
    kind: str  # counter | gauge | histogram | timer
    doc: str


@dataclass(frozen=True)
class DynamicEntry:
    """A family whose last component is computed at runtime."""

    prefix: str  # always ends with "."
    doc: str
    examples: tuple  # representative full names, for docs and drift checks


_C, _G, _H, _T = "counter", "gauge", "histogram", "timer"

#: Every statically named instrument in the repo, by family prefix.
CATALOG: tuple = (
    # ------------------------------------------------- sequential solver
    Entry("sequential.databases", _C, "Databases built by the sequential solver."),
    Entry("sequential.positions_scanned", _C, "Positions visited during graph construction."),
    Entry("sequential.moves_generated", _C, "Legal moves generated by the scan (terminal, capture and internal alike)."),
    Entry("sequential.edges_internal", _C, "Internal graph edges kept after the scan."),
    Entry("sequential.exit_lookups", _C, "Lower-database value lookups for capture moves."),
    Entry("sequential.thresholds", _C, "Threshold runs executed."),
    Entry("sequential.propagation_rounds", _C, "Retrograde propagation rounds across all thresholds."),
    Entry("sequential.parent_notifications", _C, "Parent notifications processed by the kernel."),
    Entry("sequential.db_positions", _H, "Positions per database built."),
    Entry("sequential.graph_memory_bytes", _H, "Resident bytes of each database graph."),
    Entry("sequential.solve_database", _T, "Wall-clock time per database build."),
    # ------------------------------------------------ parallel (simulated)
    Entry("parallel.databases", _C, "Databases built on the simulated cluster."),
    Entry("parallel.packets_sent", _C, "Update packets sent between simulated processors."),
    Entry("parallel.updates_sent", _C, "Individual updates shipped (before combining)."),
    Entry("parallel.updates_local", _C, "Updates applied locally without a message."),
    Entry("parallel.bytes_sent", _C, "Payload bytes sent between simulated processors."),
    Entry("parallel.control_messages", _C, "Termination/control messages exchanged."),
    Entry("parallel.token_rounds", _C, "Termination-token rounds."),
    Entry("parallel.events", _C, "Discrete-event simulator events processed."),
    Entry("parallel.combining.updates", _C, "Updates folded into combining buffers."),
    Entry("parallel.combining.packets", _C, "Packets emitted by the combining buffers."),
    Entry("parallel.combining.forced_flushes", _C, "Combining buffers flushed by protocol barriers."),
    Entry("parallel.combining.capacity_flushes", _C, "Combining buffers flushed by reaching capacity."),
    Entry("parallel.n_procs", _G, "Simulated processor count of the run."),
    Entry("parallel.combining_factor", _G, "Updates per packet of the final database."),
    Entry("parallel.makespan_seconds", _H, "Simulated makespan per database."),
    Entry("parallel.cpu_seconds_total", _H, "Simulated CPU seconds summed over processors."),
    Entry("parallel.load_imbalance", _H, "Max/mean processor load ratio per database."),
    Entry("parallel.db_positions", _H, "Positions per database built."),
    Entry("parallel.host_wall_seconds", _T, "Host wall-clock time of the simulated solve."),
    # -------------------------------------------------- simulated network
    Entry("simnet.runs", _C, "Simulated-network runs executed."),
    Entry("simnet.steps", _C, "SPMD steps summed over nodes."),
    Entry("simnet.msgs_sent", _C, "Messages sent by all nodes."),
    Entry("simnet.msgs_received", _C, "Messages received by all nodes."),
    Entry("simnet.bytes_sent", _C, "Payload bytes sent by all nodes."),
    Entry("simnet.ethernet.frames", _C, "Ethernet frames put on the shared wire."),
    Entry("simnet.ethernet.contended_frames", _C, "Frames that waited for the wire."),
    Entry("simnet.ethernet.payload_bytes", _C, "Payload bytes framed."),
    Entry("simnet.ethernet.wire_bytes", _C, "Wire bytes including framing overhead."),
    Entry("simnet.ethernet.broadcasts", _C, "Broadcast frames."),
    Entry("simnet.makespan_seconds", _H, "Simulated makespan per run."),
    Entry("simnet.cpu_seconds_total", _H, "Simulated CPU seconds per run."),
    Entry("simnet.ethernet.busy_seconds", _H, "Seconds the shared wire was busy."),
    Entry("simnet.ethernet.contention_seconds", _H, "Seconds frames spent waiting for the wire."),
    # ------------------------------------------------- multiprocess solver
    Entry("multiproc.databases", _C, "Databases built by the multiprocess solver."),
    Entry("multiproc.positions_scanned", _C, "Positions visited during graph construction (equals the sequential counter)."),
    Entry("multiproc.moves_generated", _C, "Legal moves generated by the scan (equals the sequential counter)."),
    Entry("multiproc.edges_internal", _C, "Internal graph edges kept after the scan."),
    Entry("multiproc.exit_lookups", _C, "Lower-database lookups, accumulated per scan chunk."),
    Entry("multiproc.thresholds", _C, "Threshold runs executed."),
    Entry("multiproc.propagation_rounds", _C, "Kernel propagation rounds across all thresholds."),
    Entry("multiproc.parent_notifications", _C, "Parent notifications processed by the kernel."),
    Entry("multiproc.scan_chunks", _C, "Scan chunks fanned out across the pool."),
    Entry("multiproc.shm_segments", _C, "Shared-memory segments allocated for the zero-copy fan-out."),
    Entry("multiproc.shm_claims_checked", _C, "Arena region claims validated by the shm race detector (debug mode only)."),
    Entry("multiproc.ipc_bytes_saved", _C, "Array bytes that skipped the pickle path via shared memory."),
    Entry("multiproc.solve_database", _T, "Wall-clock time per database build."),
    Entry("multiproc.threshold_seconds", _T, "Child-process wall time per kernel pass over a threshold slice."),
    Entry("multiproc.scan_seconds", _T, "Per-chunk child-process wall time."),
    # ------------------------------------------------------------ pipeline
    Entry("pipeline.databases_solved", _C, "Databases built by this pipeline run."),
    Entry("pipeline.databases_resumed", _C, "Databases loaded from verified checkpoints."),
    # ---------------------------------------------------------- resilience
    Entry("resilience.retries", _C, "Task re-executions, any cause."),
    Entry("resilience.task_failures", _C, "Tasks that raised an ordinary exception."),
    Entry("resilience.pool_rebuilds", _C, "Executor reconstructions after a broken pool."),
    Entry("resilience.tasks_replayed", _C, "Unfinished tasks resubmitted on pool rebuild."),
    Entry("resilience.tasks_completed", _C, "Tasks that produced a result."),
    Entry("resilience.rounds_resumed", _C, "Threshold runs resumed from round snapshots."),
    Entry("resilience.checkpoints_rejected", _C, "Checkpoints that failed CRC32 verification on load."),
    # -------------------------------------------------------------- faults
    Entry("faults.connections_dropped", _C, "Connections severed on accept by the drop-conn injector."),
    Entry("faults.connections_severed", _C, "Connections hung up mid-session by the drop-conn injector."),
    Entry("faults.checkpoints_corrupted", _C, "Checkpoint files damaged by the corrupt-checkpoint injector."),
    Entry("faults.latency_injected", _C, "Requests delayed by the latency injector."),
    Entry("faults.requests_blackholed", _C, "Requests read but never answered by the blackhole injector."),
    # ------------------------------------------------------------- serving
    Entry("serve.probes", _C, "Single-position lookups answered."),
    Entry("serve.batches", _C, "Batched probe_many requests answered."),
    Entry("serve.best_move_queries", _C, "Best-move evaluations answered."),
    Entry("serve.cache.hits", _C, "Block-cache hits."),
    Entry("serve.cache.misses", _C, "Block-cache misses (block loaded from disk)."),
    Entry("serve.cache.evictions", _C, "Blocks evicted to stay under the byte budget."),
    Entry("serve.cache.budget_bytes", _G, "Configured cache budget."),
    Entry("serve.cache.resident_bytes", _G, "Bytes currently resident in the cache."),
    Entry("serve.cache.resident_blocks", _G, "Blocks currently resident in the cache."),
    Entry("serve.cache.peak_resident_bytes", _G, "High-water mark of resident bytes (the budget-plus-one-block proof obligation)."),
    Entry("serve.cache.packed_resident_bytes", _G, "Stored (encoded) bytes of the resident blocks — what the cached working set costs in its on-disk codec."),
    Entry("serve.cache.lock_contended", _C, "Cache-lock acquisitions that had to wait for another thread (cross-thread serialization pressure; re-entrant acquires never count)."),
    # ------------------------------------------------------- async serving
    Entry("aserve.server.connections", _C, "Connections accepted by the asyncio probe server."),
    Entry("aserve.server.connections_rejected", _C, "Connections refused at the async server's max-connections cap."),
    Entry("aserve.server.requests", _C, "Requests answered by the asyncio server, both frame kinds."),
    Entry("aserve.server.errors", _C, "Requests rejected or failed on the asyncio server."),
    Entry("aserve.server.client_disconnects", _C, "Asyncio connections torn down by the client mid-frame."),
    Entry("aserve.server.frames_binary", _C, "Binary-protocol frames served."),
    Entry("aserve.server.overloads", _C, "Requests shed at the async server's max-inflight budget (OVERLOADED error frames)."),
    Entry("aserve.client.requests", _C, "Requests sent by the pipelined binary client."),
    Entry("aserve.client.reconnects", _C, "Binary-client connections re-established after a drop."),
    Entry("aserve.client.inflight_peak", _G, "High-water mark of pipelined in-flight requests on one connection."),
    Entry("aserve.local.probes", _C, "Probes answered by the mmap local fast path."),
    Entry("aserve.local.batches", _C, "Batched probe_many calls answered by the mmap local fast path."),
    Entry("aserve.local.best_move_queries", _C, "Best-move evaluations answered by the mmap local fast path."),
    Entry("aserve.local.mmap_bytes", _G, "Bytes of paged store mapped read-only by the local fast path."),
    Entry("aserve.local.unpacked_bytes", _G, "Resident int16 bytes bulk-unpacked at startup from a packed-codec store."),
    Entry("aserve.local.mmap_fallbacks", _C, "Stores the local fast path could not serve from the mapping (zlib-family codec) and routed through the block cache instead."),
    # ------------------------------------------------------------- cluster
    Entry("cluster.probes", _C, "Positions routed through the shard router."),
    Entry("cluster.batches", _C, "Batched probe_many calls answered by the router."),
    Entry("cluster.fanouts", _C, "Per-shard sub-batches dispatched by scatter-gather."),
    Entry("cluster.failovers", _C, "Shard endpoints failed over after an exhausted primary."),
    Entry("cluster.shard_errors", _C, "Shard requests that failed and triggered endpoint rotation."),
    Entry("cluster.best_move_queries", _C, "Best-move evaluations answered by the router."),
    Entry("cluster.overloads", _C, "Shard requests shed by an overloaded server; the router failed over without tripping the breaker."),
    Entry("cluster.hedges", _C, "Hedged backup requests fired after a slow primary (hedge_after_ms)."),
    Entry("cluster.hedge_wins", _C, "Hedged requests where the backup answered before the primary."),
    Entry("cluster.deadline_exceeded", _C, "Shard calls abandoned at the per-call deadline."),
    Entry("cluster.breaker.opens", _C, "Endpoint circuit breakers tripped open by transport failures."),
    Entry("cluster.breaker.probes", _C, "Open breakers moved to half-open for a probe-back."),
    Entry("cluster.breaker.closes", _C, "Endpoints reinstated: a half-open or open breaker closed on success."),
    Entry("cluster.supervisor.restarts", _C, "Shard servers respawned by the cluster supervisor."),
    Entry("cluster.supervisor.giveups", _C, "Endpoints abandoned after exhausting the restart budget (flap detector)."),
    Entry("cluster.supervisor.health_probes", _C, "Liveness ping round trips performed by the supervisor."),
    Entry("cluster.supervisor.alive", _G, "Endpoint processes currently alive under supervision."),
    Entry("cluster.supervisor.uptime_seconds", _G, "Seconds since the supervisor's monitor loop started."),
    Entry("cluster.shards", _G, "Shard count of the routed cluster."),
    Entry("cluster.endpoints", _G, "Total endpoints (primaries plus replicas) known to the router."),
)

#: Families whose final name component is computed at runtime.
DYNAMIC: tuple = (
    DynamicEntry(
        "simnet.sent.",
        "Per-tag message send counts on the simulated network.",
        ("simnet.sent.UPDATE", "simnet.sent.TOKEN"),
    ),
    DynamicEntry(
        "trace.",
        "Opt-in per-kind, per-tag message trace counts.",
        ("trace.send.UPDATE", "trace.deliver.TOKEN"),
    ),
    DynamicEntry(
        "aserve.server.op.",
        "Per-operation request counts of the asyncio probe server.",
        ("aserve.server.op.probe", "aserve.server.op.probe_many"),
    ),
)

_GENERATED_HEADER = '''"""Canonical metric-name catalog (GENERATED — do not edit by hand).

Regenerate with ``python -m repro.staticcheck.catalog --write``; the
declarative source of truth is ``repro.staticcheck.catalog``.  Every
string the repo passes to ``metrics.inc`` / ``set_gauge`` must be (a
scoped suffix of) a name in this module — the RA003 checker enforces it
(see docs/STATICCHECK.md).  Production code should import the constants
instead of retyping the strings.
"""

from __future__ import annotations

'''


def _const_name(name: str) -> str:
    return name.upper().replace(".", "_")


def generate_source() -> str:
    """Render the full text of ``src/repro/obs/names.py``."""
    out = [_GENERATED_HEADER]
    kinds: dict[str, list[str]] = {_C: [], _G: [], _H: [], _T: []}
    for entry in CATALOG:
        kinds[entry.kind].append(entry.name)
        out.append(f"#: {entry.doc} ({entry.kind})\n")
        out.append(f'{_const_name(entry.name)} = "{entry.name}"\n\n')
    out.append(
        "#: Prefixes of families whose final component is computed at\n"
        "#: runtime (per-tag / per-op counts); see DYNAMIC_EXAMPLES.\n"
    )
    out.append("DYNAMIC_PREFIXES = (\n")
    for dyn in DYNAMIC:
        out.append(f'    "{dyn.prefix}",  # {dyn.doc}\n')
    out.append(")\n\n")
    out.append("#: Representative instantiations of the dynamic families.\n")
    out.append("DYNAMIC_EXAMPLES = frozenset({\n")
    for dyn in DYNAMIC:
        for example in dyn.examples:
            out.append(f'    "{example}",\n')
    out.append("})\n\n")
    for kind, title in ((_C, "COUNTERS"), (_G, "GAUGES"),
                        (_H, "HISTOGRAMS"), (_T, "TIMERS")):
        out.append(f"{title} = frozenset({{\n")
        for name in sorted(kinds[kind]):
            out.append(f"    {_const_name(name)},\n")
        out.append("})\n\n")
    out.append("#: Every statically named instrument, all families.\n")
    out.append("NAMES = COUNTERS | GAUGES | HISTOGRAMS | TIMERS\n")
    return "".join(out)


def names_path() -> Path:
    """Location of the generated module inside this source tree."""
    return Path(__file__).resolve().parent.parent / "obs" / "names.py"


# --------------------------------------------------------------- doc drift

#: Dotted tokens in OBSERVABILITY.md that are code paths, not metrics.
_NON_METRIC_PREFIXES = (
    "repro.", "tests.", "docs.", "src.", "np.", "metrics.",
    "multiprocessing.", "registry.", "snapshot.", "man.",
)

_CAMEL_RE = re.compile(r"(^|\.)[A-Z][a-z]")

_TOKEN_RE = re.compile(r"^[a-z][a-zA-Z0-9_]*(\.[a-zA-Z0-9_]+)+\.?$")
_FENCE_RE = re.compile(r"^```", re.MULTILINE)


def _doc_tokens(text: str):
    """Dotted metric-looking tokens from inline code spans, with line
    numbers (fenced code blocks are skipped — they hold JSON examples
    and shell commands, not the prose contract)."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in re.findall(r"`([^`]+)`", line):
            token = span.strip().rstrip(".")
            if not _TOKEN_RE.match(token + "."):
                continue
            if "." not in token:
                continue
            if token.startswith(_NON_METRIC_PREFIXES) or "/" in token:
                continue
            if _CAMEL_RE.search(token):  # CamelCase component: a class
                continue
            if token.endswith((".py", ".md", ".json", ".npz", ".npy")):
                continue
            yield token, lineno


def _token_known(token: str, names: frozenset, examples: frozenset,
                 prefixes: tuple) -> bool:
    universe = names | examples
    if token in universe:
        return True
    # A scoped mention (`ethernet.frames`, `combining.updates`): some
    # canonical name ends with it.
    if any(n.endswith("." + token) for n in universe):
        return True
    # A family prefix mention (`serve.cache`): some name lives under it.
    if any(n.startswith(token + ".") for n in universe):
        return True
    return any(token.startswith(p) for p in prefixes)


def doc_drift(doc_text: str) -> list:
    """Metric names OBSERVABILITY.md mentions that the catalog lacks.

    Returns ``[(token, lineno), ...]`` — empty means the doc and the
    code agree on what exists.
    """
    from ..obs import names as names_mod

    return [
        (token, lineno)
        for token, lineno in _doc_tokens(doc_text)
        if not _token_known(
            token,
            names_mod.NAMES,
            names_mod.DYNAMIC_EXAMPLES,
            names_mod.DYNAMIC_PREFIXES,
        )
    ]


def main(argv=None) -> int:  # pragma: no cover - exercised via tests
    """Verify (default) or rewrite (``--write``) the generated module."""
    import argparse

    parser = argparse.ArgumentParser(
        description="regenerate or verify the metric-name catalog"
    )
    parser.add_argument("--write", action="store_true",
                        help="rewrite src/repro/obs/names.py")
    args = parser.parse_args(argv)
    source = generate_source()
    path = names_path()
    if args.write:
        from ..resilience.checkpoint import atomic_write_text

        atomic_write_text(path, source)
        print(f"wrote {path}")
        return 0
    if path.exists() and path.read_text() == source:
        print(f"{path} is up to date")
        return 0
    print(f"{path} is STALE — run with --write", flush=True)
    return 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
