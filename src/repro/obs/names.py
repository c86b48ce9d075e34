"""Canonical metric-name catalog (GENERATED — do not edit by hand).

Regenerate with ``python -m repro.staticcheck.catalog --write``; the
declarative source of truth is ``repro.staticcheck.catalog``.  Every
string the repo passes to ``metrics.inc`` / ``set_gauge`` must be (a
scoped suffix of) a name in this module — the RA003 checker enforces it
(see docs/STATICCHECK.md).  Production code should import the constants
instead of retyping the strings.
"""

from __future__ import annotations

#: Databases built by the sequential solver. (counter)
SEQUENTIAL_DATABASES = "sequential.databases"

#: Positions visited during graph construction. (counter)
SEQUENTIAL_POSITIONS_SCANNED = "sequential.positions_scanned"

#: Legal moves generated by the scan (terminal, capture and internal alike). (counter)
SEQUENTIAL_MOVES_GENERATED = "sequential.moves_generated"

#: Internal graph edges kept after the scan. (counter)
SEQUENTIAL_EDGES_INTERNAL = "sequential.edges_internal"

#: Lower-database value lookups for capture moves. (counter)
SEQUENTIAL_EXIT_LOOKUPS = "sequential.exit_lookups"

#: Threshold runs executed. (counter)
SEQUENTIAL_THRESHOLDS = "sequential.thresholds"

#: Retrograde propagation rounds across all thresholds. (counter)
SEQUENTIAL_PROPAGATION_ROUNDS = "sequential.propagation_rounds"

#: Parent notifications processed by the kernel. (counter)
SEQUENTIAL_PARENT_NOTIFICATIONS = "sequential.parent_notifications"

#: Positions per database built. (histogram)
SEQUENTIAL_DB_POSITIONS = "sequential.db_positions"

#: Resident bytes of each database graph. (histogram)
SEQUENTIAL_GRAPH_MEMORY_BYTES = "sequential.graph_memory_bytes"

#: Wall-clock time per database build. (timer)
SEQUENTIAL_SOLVE_DATABASE = "sequential.solve_database"

#: Databases built on the simulated cluster. (counter)
PARALLEL_DATABASES = "parallel.databases"

#: Update packets sent between simulated processors. (counter)
PARALLEL_PACKETS_SENT = "parallel.packets_sent"

#: Individual updates shipped (before combining). (counter)
PARALLEL_UPDATES_SENT = "parallel.updates_sent"

#: Updates applied locally without a message. (counter)
PARALLEL_UPDATES_LOCAL = "parallel.updates_local"

#: Payload bytes sent between simulated processors. (counter)
PARALLEL_BYTES_SENT = "parallel.bytes_sent"

#: Termination/control messages exchanged. (counter)
PARALLEL_CONTROL_MESSAGES = "parallel.control_messages"

#: Termination-token rounds. (counter)
PARALLEL_TOKEN_ROUNDS = "parallel.token_rounds"

#: Discrete-event simulator events processed. (counter)
PARALLEL_EVENTS = "parallel.events"

#: Updates folded into combining buffers. (counter)
PARALLEL_COMBINING_UPDATES = "parallel.combining.updates"

#: Packets emitted by the combining buffers. (counter)
PARALLEL_COMBINING_PACKETS = "parallel.combining.packets"

#: Combining buffers flushed by protocol barriers. (counter)
PARALLEL_COMBINING_FORCED_FLUSHES = "parallel.combining.forced_flushes"

#: Combining buffers flushed by reaching capacity. (counter)
PARALLEL_COMBINING_CAPACITY_FLUSHES = "parallel.combining.capacity_flushes"

#: Simulated processor count of the run. (gauge)
PARALLEL_N_PROCS = "parallel.n_procs"

#: Updates per packet of the final database. (gauge)
PARALLEL_COMBINING_FACTOR = "parallel.combining_factor"

#: Simulated makespan per database. (histogram)
PARALLEL_MAKESPAN_SECONDS = "parallel.makespan_seconds"

#: Simulated CPU seconds summed over processors. (histogram)
PARALLEL_CPU_SECONDS_TOTAL = "parallel.cpu_seconds_total"

#: Max/mean processor load ratio per database. (histogram)
PARALLEL_LOAD_IMBALANCE = "parallel.load_imbalance"

#: Positions per database built. (histogram)
PARALLEL_DB_POSITIONS = "parallel.db_positions"

#: Host wall-clock time of the simulated solve. (timer)
PARALLEL_HOST_WALL_SECONDS = "parallel.host_wall_seconds"

#: Simulated-network runs executed. (counter)
SIMNET_RUNS = "simnet.runs"

#: SPMD steps summed over nodes. (counter)
SIMNET_STEPS = "simnet.steps"

#: Messages sent by all nodes. (counter)
SIMNET_MSGS_SENT = "simnet.msgs_sent"

#: Messages received by all nodes. (counter)
SIMNET_MSGS_RECEIVED = "simnet.msgs_received"

#: Payload bytes sent by all nodes. (counter)
SIMNET_BYTES_SENT = "simnet.bytes_sent"

#: Ethernet frames put on the shared wire. (counter)
SIMNET_ETHERNET_FRAMES = "simnet.ethernet.frames"

#: Frames that waited for the wire. (counter)
SIMNET_ETHERNET_CONTENDED_FRAMES = "simnet.ethernet.contended_frames"

#: Payload bytes framed. (counter)
SIMNET_ETHERNET_PAYLOAD_BYTES = "simnet.ethernet.payload_bytes"

#: Wire bytes including framing overhead. (counter)
SIMNET_ETHERNET_WIRE_BYTES = "simnet.ethernet.wire_bytes"

#: Broadcast frames. (counter)
SIMNET_ETHERNET_BROADCASTS = "simnet.ethernet.broadcasts"

#: Simulated makespan per run. (histogram)
SIMNET_MAKESPAN_SECONDS = "simnet.makespan_seconds"

#: Simulated CPU seconds per run. (histogram)
SIMNET_CPU_SECONDS_TOTAL = "simnet.cpu_seconds_total"

#: Seconds the shared wire was busy. (histogram)
SIMNET_ETHERNET_BUSY_SECONDS = "simnet.ethernet.busy_seconds"

#: Seconds frames spent waiting for the wire. (histogram)
SIMNET_ETHERNET_CONTENTION_SECONDS = "simnet.ethernet.contention_seconds"

#: Databases built by the multiprocess solver. (counter)
MULTIPROC_DATABASES = "multiproc.databases"

#: Positions visited during graph construction (equals the sequential counter). (counter)
MULTIPROC_POSITIONS_SCANNED = "multiproc.positions_scanned"

#: Legal moves generated by the scan (equals the sequential counter). (counter)
MULTIPROC_MOVES_GENERATED = "multiproc.moves_generated"

#: Internal graph edges kept after the scan. (counter)
MULTIPROC_EDGES_INTERNAL = "multiproc.edges_internal"

#: Lower-database lookups, accumulated per scan chunk. (counter)
MULTIPROC_EXIT_LOOKUPS = "multiproc.exit_lookups"

#: Threshold runs executed. (counter)
MULTIPROC_THRESHOLDS = "multiproc.thresholds"

#: Kernel propagation rounds across all thresholds. (counter)
MULTIPROC_PROPAGATION_ROUNDS = "multiproc.propagation_rounds"

#: Parent notifications processed by the kernel. (counter)
MULTIPROC_PARENT_NOTIFICATIONS = "multiproc.parent_notifications"

#: Scan chunks fanned out across the pool. (counter)
MULTIPROC_SCAN_CHUNKS = "multiproc.scan_chunks"

#: Shared-memory segments allocated for the zero-copy fan-out. (counter)
MULTIPROC_SHM_SEGMENTS = "multiproc.shm_segments"

#: Arena region claims validated by the shm race detector (debug mode only). (counter)
MULTIPROC_SHM_CLAIMS_CHECKED = "multiproc.shm_claims_checked"

#: Array bytes that skipped the pickle path via shared memory. (counter)
MULTIPROC_IPC_BYTES_SAVED = "multiproc.ipc_bytes_saved"

#: Wall-clock time per database build. (timer)
MULTIPROC_SOLVE_DATABASE = "multiproc.solve_database"

#: Child-process wall time per kernel pass over a threshold slice. (timer)
MULTIPROC_THRESHOLD_SECONDS = "multiproc.threshold_seconds"

#: Per-chunk child-process wall time. (timer)
MULTIPROC_SCAN_SECONDS = "multiproc.scan_seconds"

#: Databases built by this pipeline run. (counter)
PIPELINE_DATABASES_SOLVED = "pipeline.databases_solved"

#: Databases loaded from verified checkpoints. (counter)
PIPELINE_DATABASES_RESUMED = "pipeline.databases_resumed"

#: Task re-executions, any cause. (counter)
RESILIENCE_RETRIES = "resilience.retries"

#: Tasks that raised an ordinary exception. (counter)
RESILIENCE_TASK_FAILURES = "resilience.task_failures"

#: Executor reconstructions after a broken pool. (counter)
RESILIENCE_POOL_REBUILDS = "resilience.pool_rebuilds"

#: Unfinished tasks resubmitted on pool rebuild. (counter)
RESILIENCE_TASKS_REPLAYED = "resilience.tasks_replayed"

#: Tasks that produced a result. (counter)
RESILIENCE_TASKS_COMPLETED = "resilience.tasks_completed"

#: Threshold runs resumed from round snapshots. (counter)
RESILIENCE_ROUNDS_RESUMED = "resilience.rounds_resumed"

#: Checkpoints that failed CRC32 verification on load. (counter)
RESILIENCE_CHECKPOINTS_REJECTED = "resilience.checkpoints_rejected"

#: Connections severed on accept by the drop-conn injector. (counter)
FAULTS_CONNECTIONS_DROPPED = "faults.connections_dropped"

#: Connections hung up mid-session by the drop-conn injector. (counter)
FAULTS_CONNECTIONS_SEVERED = "faults.connections_severed"

#: Checkpoint files damaged by the corrupt-checkpoint injector. (counter)
FAULTS_CHECKPOINTS_CORRUPTED = "faults.checkpoints_corrupted"

#: Requests delayed by the latency injector. (counter)
FAULTS_LATENCY_INJECTED = "faults.latency_injected"

#: Requests read but never answered by the blackhole injector. (counter)
FAULTS_REQUESTS_BLACKHOLED = "faults.requests_blackholed"

#: Single-position lookups answered. (counter)
SERVE_PROBES = "serve.probes"

#: Batched probe_many requests answered. (counter)
SERVE_BATCHES = "serve.batches"

#: Best-move evaluations answered. (counter)
SERVE_BEST_MOVE_QUERIES = "serve.best_move_queries"

#: Block-cache hits. (counter)
SERVE_CACHE_HITS = "serve.cache.hits"

#: Block-cache misses (block loaded from disk). (counter)
SERVE_CACHE_MISSES = "serve.cache.misses"

#: Blocks evicted to stay under the byte budget. (counter)
SERVE_CACHE_EVICTIONS = "serve.cache.evictions"

#: Configured cache budget. (gauge)
SERVE_CACHE_BUDGET_BYTES = "serve.cache.budget_bytes"

#: Bytes currently resident in the cache. (gauge)
SERVE_CACHE_RESIDENT_BYTES = "serve.cache.resident_bytes"

#: Blocks currently resident in the cache. (gauge)
SERVE_CACHE_RESIDENT_BLOCKS = "serve.cache.resident_blocks"

#: High-water mark of resident bytes (the budget-plus-one-block proof obligation). (gauge)
SERVE_CACHE_PEAK_RESIDENT_BYTES = "serve.cache.peak_resident_bytes"

#: Stored (encoded) bytes of the resident blocks — what the cached working set costs in its on-disk codec. (gauge)
SERVE_CACHE_PACKED_RESIDENT_BYTES = "serve.cache.packed_resident_bytes"

#: Cache-lock acquisitions that had to wait for another thread (cross-thread serialization pressure; re-entrant acquires never count). (counter)
SERVE_CACHE_LOCK_CONTENDED = "serve.cache.lock_contended"

#: Connections accepted by the asyncio probe server. (counter)
ASERVE_SERVER_CONNECTIONS = "aserve.server.connections"

#: Connections refused at the async server's max-connections cap. (counter)
ASERVE_SERVER_CONNECTIONS_REJECTED = "aserve.server.connections_rejected"

#: Requests answered by the asyncio server, both frame kinds. (counter)
ASERVE_SERVER_REQUESTS = "aserve.server.requests"

#: Requests rejected or failed on the asyncio server. (counter)
ASERVE_SERVER_ERRORS = "aserve.server.errors"

#: Asyncio connections torn down by the client mid-frame. (counter)
ASERVE_SERVER_CLIENT_DISCONNECTS = "aserve.server.client_disconnects"

#: Binary-protocol frames served. (counter)
ASERVE_SERVER_FRAMES_BINARY = "aserve.server.frames_binary"

#: Requests shed at the async server's max-inflight budget (OVERLOADED error frames). (counter)
ASERVE_SERVER_OVERLOADS = "aserve.server.overloads"

#: Requests sent by the pipelined binary client. (counter)
ASERVE_CLIENT_REQUESTS = "aserve.client.requests"

#: Binary-client connections re-established after a drop. (counter)
ASERVE_CLIENT_RECONNECTS = "aserve.client.reconnects"

#: High-water mark of pipelined in-flight requests on one connection. (gauge)
ASERVE_CLIENT_INFLIGHT_PEAK = "aserve.client.inflight_peak"

#: Probes answered by the mmap local fast path. (counter)
ASERVE_LOCAL_PROBES = "aserve.local.probes"

#: Batched probe_many calls answered by the mmap local fast path. (counter)
ASERVE_LOCAL_BATCHES = "aserve.local.batches"

#: Best-move evaluations answered by the mmap local fast path. (counter)
ASERVE_LOCAL_BEST_MOVE_QUERIES = "aserve.local.best_move_queries"

#: Bytes of paged store mapped read-only by the local fast path. (gauge)
ASERVE_LOCAL_MMAP_BYTES = "aserve.local.mmap_bytes"

#: Resident int16 bytes bulk-unpacked at startup from a packed-codec store. (gauge)
ASERVE_LOCAL_UNPACKED_BYTES = "aserve.local.unpacked_bytes"

#: Stores the local fast path could not serve from the mapping (zlib-family codec) and routed through the block cache instead. (counter)
ASERVE_LOCAL_MMAP_FALLBACKS = "aserve.local.mmap_fallbacks"

#: Positions routed through the shard router. (counter)
CLUSTER_PROBES = "cluster.probes"

#: Batched probe_many calls answered by the router. (counter)
CLUSTER_BATCHES = "cluster.batches"

#: Per-shard sub-batches dispatched by scatter-gather. (counter)
CLUSTER_FANOUTS = "cluster.fanouts"

#: Shard endpoints failed over after an exhausted primary. (counter)
CLUSTER_FAILOVERS = "cluster.failovers"

#: Shard requests that failed and triggered endpoint rotation. (counter)
CLUSTER_SHARD_ERRORS = "cluster.shard_errors"

#: Best-move evaluations answered by the router. (counter)
CLUSTER_BEST_MOVE_QUERIES = "cluster.best_move_queries"

#: Shard requests shed by an overloaded server; the router failed over without tripping the breaker. (counter)
CLUSTER_OVERLOADS = "cluster.overloads"

#: Hedged backup requests fired after a slow primary (hedge_after_ms). (counter)
CLUSTER_HEDGES = "cluster.hedges"

#: Hedged requests where the backup answered before the primary. (counter)
CLUSTER_HEDGE_WINS = "cluster.hedge_wins"

#: Shard calls abandoned at the per-call deadline. (counter)
CLUSTER_DEADLINE_EXCEEDED = "cluster.deadline_exceeded"

#: Endpoint circuit breakers tripped open by transport failures. (counter)
CLUSTER_BREAKER_OPENS = "cluster.breaker.opens"

#: Open breakers moved to half-open for a probe-back. (counter)
CLUSTER_BREAKER_PROBES = "cluster.breaker.probes"

#: Endpoints reinstated: a half-open or open breaker closed on success. (counter)
CLUSTER_BREAKER_CLOSES = "cluster.breaker.closes"

#: Shard servers respawned by the cluster supervisor. (counter)
CLUSTER_SUPERVISOR_RESTARTS = "cluster.supervisor.restarts"

#: Endpoints abandoned after exhausting the restart budget (flap detector). (counter)
CLUSTER_SUPERVISOR_GIVEUPS = "cluster.supervisor.giveups"

#: Liveness ping round trips performed by the supervisor. (counter)
CLUSTER_SUPERVISOR_HEALTH_PROBES = "cluster.supervisor.health_probes"

#: Endpoint processes currently alive under supervision. (gauge)
CLUSTER_SUPERVISOR_ALIVE = "cluster.supervisor.alive"

#: Seconds since the supervisor's monitor loop started. (gauge)
CLUSTER_SUPERVISOR_UPTIME_SECONDS = "cluster.supervisor.uptime_seconds"

#: Shard count of the routed cluster. (gauge)
CLUSTER_SHARDS = "cluster.shards"

#: Total endpoints (primaries plus replicas) known to the router. (gauge)
CLUSTER_ENDPOINTS = "cluster.endpoints"

#: Prefixes of families whose final component is computed at
#: runtime (per-tag / per-op counts); see DYNAMIC_EXAMPLES.
DYNAMIC_PREFIXES = (
    "simnet.sent.",  # Per-tag message send counts on the simulated network.
    "trace.",  # Opt-in per-kind, per-tag message trace counts.
    "aserve.server.op.",  # Per-operation request counts of the asyncio probe server.
)

#: Representative instantiations of the dynamic families.
DYNAMIC_EXAMPLES = frozenset({
    "simnet.sent.UPDATE",
    "simnet.sent.TOKEN",
    "trace.send.UPDATE",
    "trace.deliver.TOKEN",
    "aserve.server.op.probe",
    "aserve.server.op.probe_many",
})

COUNTERS = frozenset({
    ASERVE_CLIENT_RECONNECTS,
    ASERVE_CLIENT_REQUESTS,
    ASERVE_LOCAL_BATCHES,
    ASERVE_LOCAL_BEST_MOVE_QUERIES,
    ASERVE_LOCAL_MMAP_FALLBACKS,
    ASERVE_LOCAL_PROBES,
    ASERVE_SERVER_CLIENT_DISCONNECTS,
    ASERVE_SERVER_CONNECTIONS,
    ASERVE_SERVER_CONNECTIONS_REJECTED,
    ASERVE_SERVER_ERRORS,
    ASERVE_SERVER_FRAMES_BINARY,
    ASERVE_SERVER_OVERLOADS,
    ASERVE_SERVER_REQUESTS,
    CLUSTER_BATCHES,
    CLUSTER_BEST_MOVE_QUERIES,
    CLUSTER_BREAKER_CLOSES,
    CLUSTER_BREAKER_OPENS,
    CLUSTER_BREAKER_PROBES,
    CLUSTER_DEADLINE_EXCEEDED,
    CLUSTER_FAILOVERS,
    CLUSTER_FANOUTS,
    CLUSTER_HEDGE_WINS,
    CLUSTER_HEDGES,
    CLUSTER_OVERLOADS,
    CLUSTER_PROBES,
    CLUSTER_SHARD_ERRORS,
    CLUSTER_SUPERVISOR_GIVEUPS,
    CLUSTER_SUPERVISOR_HEALTH_PROBES,
    CLUSTER_SUPERVISOR_RESTARTS,
    FAULTS_CHECKPOINTS_CORRUPTED,
    FAULTS_CONNECTIONS_DROPPED,
    FAULTS_CONNECTIONS_SEVERED,
    FAULTS_LATENCY_INJECTED,
    FAULTS_REQUESTS_BLACKHOLED,
    MULTIPROC_DATABASES,
    MULTIPROC_EDGES_INTERNAL,
    MULTIPROC_EXIT_LOOKUPS,
    MULTIPROC_IPC_BYTES_SAVED,
    MULTIPROC_MOVES_GENERATED,
    MULTIPROC_PARENT_NOTIFICATIONS,
    MULTIPROC_POSITIONS_SCANNED,
    MULTIPROC_PROPAGATION_ROUNDS,
    MULTIPROC_SCAN_CHUNKS,
    MULTIPROC_SHM_CLAIMS_CHECKED,
    MULTIPROC_SHM_SEGMENTS,
    MULTIPROC_THRESHOLDS,
    PARALLEL_BYTES_SENT,
    PARALLEL_COMBINING_CAPACITY_FLUSHES,
    PARALLEL_COMBINING_FORCED_FLUSHES,
    PARALLEL_COMBINING_PACKETS,
    PARALLEL_COMBINING_UPDATES,
    PARALLEL_CONTROL_MESSAGES,
    PARALLEL_DATABASES,
    PARALLEL_EVENTS,
    PARALLEL_PACKETS_SENT,
    PARALLEL_TOKEN_ROUNDS,
    PARALLEL_UPDATES_LOCAL,
    PARALLEL_UPDATES_SENT,
    PIPELINE_DATABASES_RESUMED,
    PIPELINE_DATABASES_SOLVED,
    RESILIENCE_CHECKPOINTS_REJECTED,
    RESILIENCE_POOL_REBUILDS,
    RESILIENCE_RETRIES,
    RESILIENCE_ROUNDS_RESUMED,
    RESILIENCE_TASK_FAILURES,
    RESILIENCE_TASKS_COMPLETED,
    RESILIENCE_TASKS_REPLAYED,
    SEQUENTIAL_DATABASES,
    SEQUENTIAL_EDGES_INTERNAL,
    SEQUENTIAL_EXIT_LOOKUPS,
    SEQUENTIAL_MOVES_GENERATED,
    SEQUENTIAL_PARENT_NOTIFICATIONS,
    SEQUENTIAL_POSITIONS_SCANNED,
    SEQUENTIAL_PROPAGATION_ROUNDS,
    SEQUENTIAL_THRESHOLDS,
    SERVE_BATCHES,
    SERVE_BEST_MOVE_QUERIES,
    SERVE_CACHE_EVICTIONS,
    SERVE_CACHE_HITS,
    SERVE_CACHE_LOCK_CONTENDED,
    SERVE_CACHE_MISSES,
    SERVE_PROBES,
    SIMNET_BYTES_SENT,
    SIMNET_ETHERNET_BROADCASTS,
    SIMNET_ETHERNET_CONTENDED_FRAMES,
    SIMNET_ETHERNET_FRAMES,
    SIMNET_ETHERNET_PAYLOAD_BYTES,
    SIMNET_ETHERNET_WIRE_BYTES,
    SIMNET_MSGS_RECEIVED,
    SIMNET_MSGS_SENT,
    SIMNET_RUNS,
    SIMNET_STEPS,
})

GAUGES = frozenset({
    ASERVE_CLIENT_INFLIGHT_PEAK,
    ASERVE_LOCAL_MMAP_BYTES,
    ASERVE_LOCAL_UNPACKED_BYTES,
    CLUSTER_ENDPOINTS,
    CLUSTER_SHARDS,
    CLUSTER_SUPERVISOR_ALIVE,
    CLUSTER_SUPERVISOR_UPTIME_SECONDS,
    PARALLEL_COMBINING_FACTOR,
    PARALLEL_N_PROCS,
    SERVE_CACHE_BUDGET_BYTES,
    SERVE_CACHE_PACKED_RESIDENT_BYTES,
    SERVE_CACHE_PEAK_RESIDENT_BYTES,
    SERVE_CACHE_RESIDENT_BLOCKS,
    SERVE_CACHE_RESIDENT_BYTES,
})

HISTOGRAMS = frozenset({
    PARALLEL_CPU_SECONDS_TOTAL,
    PARALLEL_DB_POSITIONS,
    PARALLEL_LOAD_IMBALANCE,
    PARALLEL_MAKESPAN_SECONDS,
    SEQUENTIAL_DB_POSITIONS,
    SEQUENTIAL_GRAPH_MEMORY_BYTES,
    SIMNET_CPU_SECONDS_TOTAL,
    SIMNET_ETHERNET_BUSY_SECONDS,
    SIMNET_ETHERNET_CONTENTION_SECONDS,
    SIMNET_MAKESPAN_SECONDS,
})

TIMERS = frozenset({
    MULTIPROC_SCAN_SECONDS,
    MULTIPROC_SOLVE_DATABASE,
    MULTIPROC_THRESHOLD_SECONDS,
    PARALLEL_HOST_WALL_SECONDS,
    SEQUENTIAL_SOLVE_DATABASE,
})

#: Every statically named instrument, all families.
NAMES = COUNTERS | GAUGES | HISTOGRAMS | TIMERS
