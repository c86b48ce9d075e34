"""Per-layer probes: every layer measured from outside, through its public calls.

A traced run calls :func:`measure_all`, which replays the workloads'
inputs layer by layer — each boundary wrapped in a span, counts read
beside it — and returns one value for every ``per_layer`` name in
``BENCHMARK.json``.  Nothing under ``src/`` is edited or patched:
where a child layer is only reachable *through* its parent (the game's
``scan_chunk`` inside ``scan_chunk_to_parts``, the store's
``read_block`` inside the cache loader) the parent is handed a thin
delegating proxy whose one method is wrapped in a span.

The probes are the same whichever workloads are named; only the
``loadgen.*`` group comes from a traced run of each workload itself.
"""

from __future__ import annotations

import multiprocessing
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import solve_awari
from repro.aserve.frames import (
    decode_request,
    decode_response,
    encode_probe_many,
    encode_values,
)
from repro.aserve.local import LocalProbeClient
from repro.cluster.manifest import ShardManifest, split_store
from repro.cluster.router import ShardRouter
from repro.core.graph import (
    CSR,
    DatabaseGraph,
    WorkCounters,
    build_database_graph,
    scan_chunk_to_parts,
)
from repro.core.kernel import solve_kernel, threshold_init
from repro.core.multiproc import MultiprocessSolver
from repro.core.sequential import SequentialSolver
from repro.core.shm import ShmArena
from repro.core.values import LOSS, NO_EXIT, WIN, assemble_values
from repro.core.verify import check_bellman
from repro.db.packing import bit_width, pack_bits, unpack_bits
from repro.db.store import DatabaseSet
from repro.games.registry import capture_game
from repro.obs import NULL_METRICS, MetricsRegistry
from repro.resilience.checkpoint import (
    atomic_save_array,
    crc32_of_file,
    load_array_verified,
)
from repro.resilience.pool import SupervisedPool
from repro.serve.cache import BlockCache
from repro.serve.pagedstore import PagedStore, write_paged
from repro.serve.protocol import recv_message, send_message
from repro.serve.service import PagedBackend, ProbeService

from bench import inputs, oracle, stats, workloads
from bench.procs import Sandbox
from bench.trace import Tracer, duration, durations, self_times

__all__ = ["measure_all", "LayerError"]

SCAN_CHUNK = 1 << 15  # the solvers' default scan batch
SHM_BYTES = 64 << 20
POOL_TASKS = 1000
OBS_CALLS = 200_000
CACHE_HITS = 200_000
CACHE_MISSES = 50_000
PARTITION_INDICES = 1_000_000
PING_COUNT = 1000
LIVE_REQUESTS = 300
CLUSTER_LIVE_REQUESTS = 64
REPLAY_BATCHES = 64
SEQUENTIAL_ROUNDS = 2
CODEC_NAMES = {"raw": "raw", "zlib": "zlib", "packed": "packed",
               "packed+zlib": "packed-zlib"}


class LayerError(RuntimeError):
    """A layer probe produced a wrong answer — the trace is not trusted."""


@dataclass
class Context:
    """What the probes share."""

    sandbox: Sandbox
    tracer: Tracer
    seed: int
    fixture: object  # path of the fixture .npz
    dbs: DatabaseSet
    metrics: dict = field(default_factory=dict)  # name -> value
    notes: dict = field(default_factory=dict)  # printed, not gated

    def put(self, name: str, value) -> None:
        self.metrics[name] = float(value)


class _Spanned:
    """Delegate everything to ``inner``; wrap one method in a span."""

    def __init__(self, inner, method: str, tracer: Tracer, span_name: str):
        self._inner = inner
        self._method = method
        self._tracer = tracer
        self._span_name = span_name

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._method:
            return attr

        def spanned(*args, **kwargs):
            with self._tracer.span(self._span_name):
                return attr(*args, **kwargs)

        return spanned

    def __contains__(self, item):
        return item in self._inner


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_seconds(fn, repeats: int) -> float:
    return stats.percentile([_timed(fn) for _ in range(repeats)], 50)


def _second_of_two(fn) -> float:
    """Seconds of the second call; the first (cold forks, cold caches)
    is the warm-up."""
    _timed(fn)
    return _timed(fn)


def _per_call_seconds(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _require_oracle(values, stones: int) -> None:
    problems = oracle.mismatches(values, oracle.load_expected(),
                                 range(stones + 1))
    if problems:
        raise LayerError("; ".join(problems))


# ------------------------------------------------------- sequential solve


def replay_sequential(tracer: Tracer, game, target: int) -> tuple:
    """A full solve composed from the layers' public functions, one span
    per boundary.  Returns ``(values, counts)``; the values must equal
    the solver's bit for bit, which is what makes the coverage ratio
    mean something."""
    traced_game = _Spanned(game, "scan_chunk", tracer, "games.scan_chunk")
    counts = {"positions": 0, "moves_generated": 0, "edges_internal": 0,
              "exit_lookups": 0, "memory_bytes": 0, "rounds": 0,
              "parent_notifications": 0, "thresholds": 0}
    values: dict = {}
    with tracer.span("core.sequential.solve", op="replay"):
        for db_id in game.db_sequence(target):
            size = game.db_size(db_id)
            best_exit = np.full(size, NO_EXIT, dtype=np.int16)
            out_degree = np.zeros(size, dtype=np.int32)
            srcs, dsts = [], []
            for start in range(0, size, SCAN_CHUNK):
                stop = min(start + SCAN_CHUNK, size)
                with tracer.span("core.graph.scan_chunk_to_parts"):
                    parts = scan_chunk_to_parts(
                        traced_game, db_id, values, start, stop)
                counts["moves_generated"] += parts.moves_generated
                counts["exit_lookups"] += parts.exit_lookups
                best_exit[start:stop] = parts.best_exit
                out_degree[start:stop] = parts.out_degree
                srcs.append(parts.src)
                dsts.append(parts.dst)
            src = np.concatenate(srcs)
            dst = np.concatenate(dsts)
            with tracer.span("core.graph.csr"):
                forward = CSR.from_edges(size, src, dst)
                reverse = CSR.from_edges(size, dst, src)
            graph = DatabaseGraph(
                db_id=db_id, size=size, best_exit=best_exit,
                out_degree=out_degree, forward=forward, reverse=reverse,
                work=WorkCounters(),
            )
            counts["positions"] += size
            counts["edges_internal"] += forward.n_edges
            counts["memory_bytes"] = max(counts["memory_bytes"],
                                         graph.memory_bytes())
            bound = game.value_bound(db_id)
            if bound == 0:
                solved = best_exit.astype(np.int16)
                solved[solved == NO_EXIT] = 0
                values[db_id] = solved
                continue
            win_sets, loss_sets = [], []
            for t in range(1, bound + 1):
                with tracer.span("core.kernel.threshold_init"):
                    problem = threshold_init(graph, t)
                with tracer.span("core.kernel.solve_kernel"):
                    result = solve_kernel(problem)
                win_sets.append(result.status == WIN)
                loss_sets.append(result.status == LOSS)
                counts["thresholds"] += 1
                counts["rounds"] += result.rounds
                counts["parent_notifications"] += result.parent_notifications
            with tracer.span("core.values.assemble_values"):
                values[db_id] = assemble_values(win_sets, loss_sets)
    return values, counts


def probe_sequential(ctx: Context) -> dict:
    """games, core.graph, core.kernel, core.values, core.sequential."""
    game = capture_game(oracle.GAME)
    target = workloads.SOLVE_STONES
    # Solver and replay alternate twice and the faster of each is kept:
    # the first round is also the warm-up, and two single 1.4 s operations
    # a moment apart can differ by a tenth on a shared box, which is the
    # whole width of the coverage band.
    untraced_s = traced_s = float("inf")
    for _ in range(SEQUENTIAL_ROUNDS):
        t0 = time.perf_counter()
        reference, _ = SequentialSolver(game).solve(target)
        untraced_s = min(untraced_s, time.perf_counter() - t0)
        root = len(ctx.tracer.spans)
        values, counts = replay_sequential(ctx.tracer, game, target)
        if duration(ctx.tracer.spans[root]) < traced_s:
            traced_s, first_span = duration(ctx.tracer.spans[root]), root
    _require_oracle(values, target)
    for db_id in reference:
        if not np.array_equal(reference[db_id], values[db_id]):
            raise LayerError(f"replay and solver differ on db {db_id}")
    bellman = check_bellman(game, target, values)
    if not bellman.ok:
        raise LayerError(f"db {target} violates the Bellman equation at "
                         f"{bellman.first_violation}")

    own = ctx.tracer.self_seconds(under=first_span)
    scan_s = own["games.scan_chunk"]
    parts_s = own["core.graph.scan_chunk_to_parts"]
    csr_s = own["core.graph.csr"]
    init_s = own["core.kernel.threshold_init"]
    kernel_s = own["core.kernel.solve_kernel"]
    assemble_s = own["core.values.assemble_values"]
    ctx.put("games.scan_s", scan_s)
    ctx.put("games.scan_ns_per_position", scan_s / counts["positions"] * 1e9)
    ctx.put("games.moves_generated", counts["moves_generated"])
    ctx.put("core.graph.parts_self_s", parts_s)
    ctx.put("core.graph.csr_s", csr_s)
    ctx.put("core.graph.edges_internal", counts["edges_internal"])
    ctx.put("core.graph.exit_lookups", counts["exit_lookups"])
    ctx.put("core.graph.memory_bytes", counts["memory_bytes"])
    ctx.put("core.kernel.init_s", init_s)
    ctx.put("core.kernel.solve_s", kernel_s)
    ctx.put("core.kernel.ns_per_notification",
            kernel_s / counts["parent_notifications"] * 1e9)
    ctx.put("core.kernel.rounds", counts["rounds"])
    ctx.put("core.kernel.parent_notifications", counts["parent_notifications"])
    ctx.put("core.kernel.thresholds", counts["thresholds"])
    ctx.put("core.values.assemble_s", assemble_s)
    layered = scan_s + parts_s + csr_s + init_s + kernel_s + assemble_s
    ctx.put("core.sequential.layer_coverage", layered / untraced_s)
    ctx.notes["solve-seq untraced / traced wall s"] = (untraced_s, traced_s)
    return {"untraced_s": untraced_s, "traced_s": traced_s,
            "parent_s": csr_s + assemble_s, "game": game}


def probe_multiproc(ctx: Context, seq: dict, also_untraced: bool) -> dict:
    """core.multiproc, from the solver's own registry snapshot."""
    game = seq["game"]
    target = workloads.SOLVE_STONES
    workers = workloads.MP_WORKERS
    untraced_s = _second_of_two(
        lambda: MultiprocessSolver(game, workers=workers).solve(target)
    ) if also_untraced else None
    registry = MetricsRegistry()
    with ctx.tracer.span("core.multiproc.solve", op="traced") as span:
        values = MultiprocessSolver(
            game, workers=workers, metrics=registry).solve(target)
    wall_s = duration(span)
    _require_oracle(values, target)
    snap = registry.snapshot(timers=True)
    counters, timers = snap["counters"], snap["timers"]
    scan_child = timers["multiproc.scan_seconds"]["total"]
    threshold_child = timers["multiproc.threshold_seconds"]["total"]
    ctx.put("core.multiproc.scan_child_s", scan_child)
    ctx.put("core.multiproc.threshold_child_s", threshold_child)
    ctx.put("core.multiproc.fanout_overhead_s",
            wall_s - (scan_child + threshold_child) / workers - seq["parent_s"])
    ctx.put("core.multiproc.parallel_efficiency",
            seq["untraced_s"] / (workers * wall_s))
    ctx.put("core.multiproc.ipc_bytes_saved",
            counters.get("multiproc.ipc_bytes_saved", 0))
    ctx.put("core.multiproc.ipc_bytes_pickled",
            counters.get("multiproc.ipc_bytes_pickled", 0))
    ctx.put("core.multiproc.shm_segments",
            counters.get("multiproc.shm_segments", 0))
    return {"traced_s": wall_s, "untraced_s": untraced_s}


def _llc_bytes() -> int:
    """Last-level cache size from sysfs, 0 when the kernel does not say."""
    best = 0
    for index in range(8):
        path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        digits = text.rstrip("KM")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def probe_shm(ctx: Context) -> None:
    """core.shm: alloc → fill → take on a segment well past the LLC."""
    with ShmArena() as arena:
        segment = arena.alloc("bench", (SHM_BYTES,), np.uint8)
        segment[:] = 1
        with ctx.tracer.span("core.shm.take") as span:
            copy = arena.take("bench")
        if int(copy[-1]) != 1:
            raise LayerError("ShmArena.take returned the wrong bytes")
    ctx.put("core.shm.take_gbps", SHM_BYTES / duration(span) / 1e9)
    ctx.notes["core.shm segment / LLC bytes"] = (SHM_BYTES, _llc_bytes())


def _noop(task):
    return task


def probe_pool(ctx: Context) -> None:
    """resilience.pool: per-task cost of the supervised fan-out."""
    registry = MetricsRegistry()
    context = multiprocessing.get_context("fork")  # as MultiprocessSolver does
    with SupervisedPool(_noop, max_workers=workloads.MP_WORKERS,
                        mp_context=context, metrics=registry) as pool:
        pool.map(range(16))  # workers forked and idle before timing
        with ctx.tracer.span("resilience.pool.map") as span:
            results = pool.map(range(POOL_TASKS))
    if results != list(range(POOL_TASKS)):
        raise LayerError("SupervisedPool.map returned the wrong results")
    ctx.put("resilience.pool.task_us", duration(span) / POOL_TASKS * 1e6)
    ctx.put("resilience.pool.retries",
            registry.snapshot()["counters"].get("resilience.retries", 0))


def probe_checkpoint(ctx: Context) -> None:
    """resilience.checkpoint on the largest fixture array."""
    array = ctx.dbs[oracle.FIXTURE_STONES]
    path = ctx.sandbox.mkdir("checkpoint") / "values.npy"
    crcs = []
    write_s = _median_seconds(
        lambda: crcs.append(atomic_save_array(path, array)), 5)

    def load():
        if crc32_of_file(path) != crcs[-1]:
            raise LayerError("checkpoint CRC changed on disk")
        loaded = load_array_verified(path, crcs[-1])
        if not np.array_equal(loaded, array):
            raise LayerError("checkpoint round trip changed the values")

    load_s = _median_seconds(load, 5)
    ctx.put("resilience.checkpoint.write_mbps", array.nbytes / write_s / 1e6)
    ctx.put("resilience.checkpoint.load_verified_mbps",
            array.nbytes / load_s / 1e6)


def probe_store_and_packing(ctx: Context) -> None:
    """db.store save/load of the fixture; db.packing on its largest array."""
    path = ctx.sandbox.mkdir("dbstore") / "fixture.npz"
    save_s = _median_seconds(lambda: ctx.dbs.save(path), 3)
    loaded = []
    load_s = _median_seconds(lambda: loaded.append(DatabaseSet.load(path)), 3)
    for db_id in ctx.dbs.ids():
        if not np.array_equal(loaded[-1][db_id], ctx.dbs[db_id]):
            raise LayerError(f"DatabaseSet round trip changed db {db_id}")
    ctx.put("db.store.save_s", save_s)
    ctx.put("db.store.load_s", load_s)
    ctx.put("db.store.file_bytes", path.stat().st_size)

    array = ctx.dbs[oracle.FIXTURE_STONES]
    lo, hi = int(array.min()), int(array.max())
    bits = bit_width(lo, hi)
    packed = []
    pack_s = _median_seconds(
        lambda: packed.append(pack_bits(array, bits, lo)), 3)
    unpacked = []
    unpack_s = _median_seconds(
        lambda: unpacked.append(
            unpack_bits(packed[-1], array.shape[0], bits, lo)), 3)
    if not np.array_equal(unpacked[-1], array):
        raise LayerError("pack_bits/unpack_bits round trip changed the values")
    ctx.put("db.packing.pack_mvalues_per_s", array.shape[0] / pack_s / 1e6)
    ctx.put("db.packing.unpack_mvalues_per_s", array.shape[0] / unpack_s / 1e6)


# ------------------------------------------------------ simulated cluster


def probe_sim(ctx: Context, also_untraced: bool) -> dict:
    """simnet + core.parallel: one simulated solve with its registry on."""
    stones, procs = workloads.SIM_STONES, workloads.SIM_PROCS
    untraced_s = _second_of_two(
        lambda: solve_awari(stones, procs=procs)) if also_untraced else None
    registry = MetricsRegistry()
    with ctx.tracer.span("core.parallel.solve", op="traced") as span:
        dbs, run_stats = solve_awari(stones, procs=procs, metrics=registry)
    wall_s = duration(span)
    _require_oracle(dbs.values, stones)
    game = capture_game(oracle.GAME)
    with ctx.tracer.span("core.graph.build_database_graph",
                         op="traced") as span:
        for db_id in game.db_sequence(stones):
            build_database_graph(game, db_id, dbs.values)
    graph_s = duration(span)
    counters = registry.snapshot()["counters"]
    counts = workloads.sim_counts(run_stats)
    busy = sum(s.ethernet_busy_seconds for s in run_stats)
    ctx.put("simnet.events", counts["events"])
    ctx.put("simnet.events_per_host_s", counts["events"] / wall_s)
    ctx.put("core.parallel.packets_sent", counts["packets_sent"])
    ctx.put("core.parallel.updates_sent", counts["updates_sent"])
    ctx.put("core.parallel.combining_factor",
            counters["parallel.combining.updates"]
            / counters["parallel.combining.packets"])
    ctx.put("core.parallel.sim_makespan_s", counts["sim_makespan_s"])
    ctx.put("core.parallel.ethernet_utilization",
            busy / counts["sim_makespan_s"])
    ctx.put("core.parallel.graph_share", graph_s / wall_s)
    return {"traced_s": wall_s, "untraced_s": untraced_s}


# ---------------------------------------------------------------- serving


def probe_pagedstore(ctx: Context) -> dict:
    """serve.pagedstore: write four codecs, read every block of each."""
    directory = ctx.sandbox.mkdir("paged")
    paths = {}
    for codec, label in CODEC_NAMES.items():
        path = directory / f"store-{label}.pgdb"
        with ctx.tracer.span(f"serve.pagedstore.write_paged.{label}") as span:
            summary = write_paged(
                ctx.dbs, path, block_positions=workloads.BLOCK_POSITIONS,
                codec=codec)
        if codec == "zlib":
            ctx.put("serve.pagedstore.write_s", duration(span))
        ctx.put(f"serve.pagedstore.stored_ratio.{label}",
                summary["stored_ratio"])
        paths[codec] = path
        with PagedStore(path) as store:
            blocks = [(db_id, b) for db_id in store.ids()
                      for b in range(store.n_blocks(db_id))]
            with ctx.tracer.span(
                    f"serve.pagedstore.read_block.{label}") as span:
                total = 0
                for db_id, block_no in blocks:
                    total += store.read_block(db_id, block_no).shape[0]
            if total != ctx.dbs.total_positions:
                raise LayerError(f"{codec} store decoded {total} positions")
        ctx.put(f"serve.pagedstore.read_block_us.{label}",
                duration(span) / len(blocks) * 1e6)
    return paths


def probe_cache(ctx: Context) -> None:
    """serve.cache: the hit path, and miss + insert + evict on a full cache."""
    block = np.zeros(workloads.BLOCK_POSITIONS, dtype=np.int16)
    cache = BlockCache(workloads.HOT_CACHE_BYTES)
    cache.put("resident", block)
    ctx.put("serve.cache.hit_ns", _per_call_seconds(
        lambda: cache.get("resident", None), CACHE_HITS) * 1e9)

    full = BlockCache(workloads.COLD_CACHE_BYTES)
    for key in range(workloads.COLD_CACHE_BYTES // block.nbytes):
        full.put(("warm", key), block)
    keys = iter(range(CACHE_MISSES))
    ctx.put("serve.cache.miss_evict_us", _per_call_seconds(
        # an instant loader: what is timed is the cache, not the store
        lambda: full.get(next(keys), lambda: block), CACHE_MISSES) * 1e6)
    if full.evictions < CACHE_MISSES:
        raise LayerError("a full cache did not evict on every miss")


def _replay_requests(ctx: Context, service, batches, label: str) -> list:
    """Drive one request after another through the server's own stages
    in process: encode → decode → ``probe_packed`` → encode → decode.
    Returns the per-request stage seconds."""
    tracer = ctx.tracer
    per_request = []
    for number, batch in enumerate(batches):
        first = len(tracer.spans)
        with tracer.span(f"request.replay.{label}", op=number):
            with tracer.span("aserve.frames.encode_probe_many"):
                payload = encode_probe_many(number, batch.positions)
            with tracer.span("aserve.frames.decode_request"):
                request = decode_request(payload)
            with tracer.span("serve.service.probe_packed"):
                values = service.probe_packed(
                    request.directory, request.db_slots, request.indices)
            with tracer.span("aserve.frames.encode_values"):
                answer = encode_values(number, values)
            with tracer.span("aserve.frames.decode_response"):
                response = decode_response(answer)
        if not np.array_equal(response.values, batch.expected):
            raise LayerError(f"{label} replay of batch {number} is wrong")
        per_request.append(duration(tracer.spans[first]))
    return per_request


def _replay_mix(ctx: Context, path, cache_bytes: int, batches, label: str,
                warm: bool) -> dict:
    """Replay one traffic mix against a fresh in-process service whose
    store reads are spans; cache counters are taken over the replay only."""
    ctx.tracer.workload = f"serve-{label}"
    cache = BlockCache(cache_bytes)
    store = _Spanned(PagedStore(path), "read_block", ctx.tracer,
                     "serve.pagedstore.read_block")
    with ProbeService(PagedBackend(store, cache)) as service:
        if warm:  # fill the cache, as the workload's warm-up does
            for batch in batches:
                service.probe_many(batch.positions)
        before = cache.stats()
        first = len(ctx.tracer.spans)
        requests = _replay_requests(ctx, service, batches, label)
        after = cache.stats()
    spans = ctx.tracer.spans[first:]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    reads = sum(durations(spans, "serve.pagedstore.read_block"))
    return {
        "spans": spans,
        "request_us": stats.percentile(requests, 50) * 1e6,
        "hit_rate": hits / (hits + misses),
        "evictions": after["evictions"] - before["evictions"],
        "peak_resident_bytes": after["peak_resident_bytes"],
        "read_us_per_request": reads / len(batches) * 1e6,
    }


def probe_service(ctx: Context, paths: dict) -> dict:
    """serve.service, aserve.frames and the cache's behaviour on the two
    traffic mixes, all in process on the zlib store."""
    hot = inputs.make_batches(ctx.dbs.values, ctx.seed, REPLAY_BATCHES,
                              workloads.BATCH, "hot")
    cold = inputs.make_batches(ctx.dbs.values, ctx.seed, REPLAY_BATCHES,
                               workloads.BATCH, "uniform")

    with ProbeService.from_paged(
            paths["zlib"], cache_bytes=workloads.HOT_CACHE_BYTES) as service:
        for batch in hot:
            service.probe_many(batch.positions)
        t0 = time.perf_counter()
        for batch in hot:
            values = service.probe_many(batch.positions)
        list_s = time.perf_counter() - t0
        if not np.array_equal(values, hot[-1].expected):
            raise LayerError("probe_many returned the wrong values")
    ctx.put("serve.service.probe_many_us_per_probe",
            list_s / (REPLAY_BATCHES * workloads.BATCH) * 1e6)

    warm = _replay_mix(ctx, paths["zlib"], workloads.HOT_CACHE_BYTES, hot,
                       "hot", warm=True)

    def stage_us(name: str) -> float:
        return stats.percentile(durations(warm["spans"], name), 50) * 1e6

    ctx.put("serve.service.probe_packed_us_per_probe",
            stage_us("serve.service.probe_packed") / workloads.BATCH)
    ctx.put("aserve.frames.encode_request_us",
            stage_us("aserve.frames.encode_probe_many"))
    ctx.put("aserve.frames.decode_request_us",
            stage_us("aserve.frames.decode_request"))
    ctx.put("aserve.frames.encode_response_us",
            stage_us("aserve.frames.encode_values"))
    ctx.put("aserve.frames.decode_response_us",
            stage_us("aserve.frames.decode_response"))
    ctx.put("serve.cache.hit_rate.hot", warm["hit_rate"])
    ctx.put("serve.pagedstore.read_us_per_request.hot",
            warm["read_us_per_request"])

    missing = _replay_mix(ctx, paths["zlib"], workloads.COLD_CACHE_BYTES,
                          cold, "cold", warm=False)
    ctx.put("serve.pagedstore.read_us_per_request.cold",
            missing["read_us_per_request"])
    ctx.put("serve.cache.hit_rate.cold", missing["hit_rate"])
    ctx.put("serve.cache.evictions.cold", missing["evictions"])
    ctx.put("serve.cache.peak_resident_bytes.cold",
            missing["peak_resident_bytes"])
    block_bytes = 2 * workloads.BLOCK_POSITIONS
    if missing["peak_resident_bytes"] > (
            workloads.COLD_CACHE_BYTES + block_bytes):
        raise LayerError("the cold cache exceeded its budget plus one block")
    ctx.notes["in-process request us, hot / cold"] = (
        warm["request_us"], missing["request_us"])

    # Every block a miss: a cache that holds one block, indices ascending.
    with PagedStore(paths["zlib"]) as store:
        backend = PagedBackend(store, BlockCache(block_bytes))
        top = oracle.FIXTURE_STONES
        indices = np.arange(0, store.positions(top),
                            workloads.BLOCK_POSITIONS, dtype=np.int64)
        t0 = time.perf_counter()
        gathered = backend.gather(top, indices)
        seconds = time.perf_counter() - t0
        if not np.array_equal(gathered, ctx.dbs[top][indices]):
            raise LayerError("PagedBackend.gather returned the wrong values")
    ctx.put("serve.service.gather_cold_us_per_block",
            seconds / indices.shape[0] * 1e6)
    return {"hot": hot, "hot_stage_us": warm["request_us"]}


def probe_protocol(ctx: Context, hot) -> None:
    """serve.protocol: JSON request + response of one 256-probe batch,
    through the module's public send/receive over a socket pair."""
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    encode, decode = [], []
    try:
        for batch in hot:
            request = {"op": "probe_many",
                       "positions": [list(p) for p in batch.positions]}
            response = {"ok": True,
                        "values": [int(v) for v in batch.expected]}
            spent_encode = spent_decode = 0.0
            for message in (request, response):
                t0 = time.perf_counter()
                send_message(left, message)
                t1 = time.perf_counter()
                received = recv_message(right)
                t2 = time.perf_counter()
                spent_encode += t1 - t0
                spent_decode += t2 - t1
                if received != message:
                    raise LayerError("JSON frame changed in transit")
            encode.append(spent_encode)
            decode.append(spent_decode)
    finally:
        left.close()
        right.close()
    ctx.put("serve.protocol.json_encode_us",
            stats.percentile(encode, 50) * 1e6)
    ctx.put("serve.protocol.json_decode_us",
            stats.percentile(decode, 50) * 1e6)


def _live_p50_us(ctx: Context, client, batches, count: int,
                 span_name: str) -> float:
    """Median latency of ``count`` verified live requests after one
    warming pass over ``batches``; each request becomes a span."""
    for batch in batches:
        client.probe_many(batch.positions)
    latencies = []
    for number in range(count):
        batch = batches[number % len(batches)]
        t0 = time.perf_counter()
        values = client.probe_many(batch.positions)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        ctx.tracer.add(span_name, t0, t1, op=number)
        if not np.array_equal(values, batch.expected):
            raise LayerError(f"{span_name}: a live request returned "
                             "wrong values")
    return stats.percentile(latencies, 50) * 1e6


def probe_live_server(ctx: Context, hot, hot_stage_us: float) -> None:
    """aserve.server + aserve.client: the floor under every request."""
    target = workloads.SingleServer(ctx.sandbox, ctx.fixture,
                                    workloads.HOT_CACHE_BYTES)
    try:
        p50_us = _live_p50_us(ctx, target.client, hot, LIVE_REQUESTS,
                              "aserve.request.hot")
        pings = [_timed(target.client.ping) for _ in range(PING_COUNT)]
    finally:
        target.close()
    ctx.put("aserve.ping_rtt_us", stats.percentile(pings, 50) * 1e6)
    ctx.put("aserve.transport_residual_us", p50_us - hot_stage_us)
    ctx.notes["serve-hot live p50 / in-process stages us"] = (
        p50_us, hot_stage_us)


def probe_local(ctx: Context, paths: dict, hot) -> None:
    """aserve.local: the mmap path, which no end-to-end workload uses."""
    probes = len(hot) * workloads.BATCH
    for codec in ("raw", "zlib"):
        with LocalProbeClient(paths[codec]) as client:
            for batch in hot:
                client.probe_many(batch.positions)
            t0 = time.perf_counter()
            for batch in hot:
                values = client.probe_many(batch.positions)
            seconds = time.perf_counter() - t0
            if not np.array_equal(values, hot[-1].expected):
                raise LayerError(f"LocalProbeClient({codec}) is wrong")
        ctx.put(f"aserve.local.{codec}_us_per_probe", seconds / probes * 1e6)


class _ArrayShard:
    """In-process stand-in for one shard's client: answers from arrays,
    inside a span so the router's *self* time excludes it."""

    def __init__(self, tracer: Tracer, local_values: dict):
        self._tracer = tracer
        self._values = local_values

    def probe_many(self, pairs):
        with self._tracer.span("cluster.shard.fake"):
            return np.fromiter(
                (self._values[db_id][local] for db_id, local in pairs),
                dtype=np.int16, count=len(pairs))

    def close(self) -> None:
        pass


def probe_router(ctx: Context) -> dict:
    """cluster.manifest, cluster.router (self time) and core.partition."""
    directory = ctx.sandbox.mkdir("split")
    shards = workloads.CLUSTER_SHARDS
    with ctx.tracer.span("cluster.manifest.split_store") as span:
        split_store(ctx.fixture, directory, shards,
                    block_positions=workloads.BLOCK_POSITIONS)
    ctx.put("cluster.manifest.split_s", duration(span))
    manifest = ShardManifest.load(directory)
    local = [
        {db_id: ctx.dbs[db_id][manifest.partition_for(db_id)
                               .local_indices(rank)]
         for db_id in ctx.dbs.ids()}
        for rank in range(shards)
    ]
    # Fake endpoints: the port number is the shard's rank.
    endpoints = [[("in-process", rank)] for rank in range(shards)]
    batches = inputs.make_batches(
        ctx.dbs.values, ctx.seed, 16, workloads.CLUSTER_BATCH, "hot")
    router = ShardRouter(
        manifest, endpoints,
        client_factory=lambda host, port: _ArrayShard(ctx.tracer, local[port]))
    first = len(ctx.tracer.spans)
    try:
        for number, batch in enumerate(batches):
            with ctx.tracer.span("cluster.router.probe_many", op=number):
                values = router.probe_many(batch.positions)
            if not np.array_equal(values, batch.expected):
                raise LayerError("the router merged a batch wrongly")
    finally:
        router.close()
    spans = ctx.tracer.spans[first:]
    own = self_times(spans)
    route = [own[span["id"]] for span in spans
             if span["name"] == "cluster.router.probe_many"]
    route_us = stats.percentile(route, 50) / workloads.CLUSTER_BATCH * 1e6
    ctx.put("cluster.router.route_us_per_probe", route_us)

    partition = manifest.partition_for(oracle.FIXTURE_STONES)
    rng = np.random.default_rng(ctx.seed)
    index = rng.integers(0, partition.size, PARTITION_INDICES)
    seconds = float("inf")
    for _ in range(5):  # a 10 ms call: keep the undisturbed one
        t0 = time.perf_counter()
        owner = partition.owner_of(index)
        slot = partition.to_local(index)
        seconds = min(seconds, time.perf_counter() - t0)
    if owner.shape != index.shape or slot.shape != index.shape:
        raise LayerError("Partition returned the wrong shapes")
    ctx.put("core.partition.owner_local_ns_per_index",
            seconds / PARTITION_INDICES * 1e9)
    return {"route_us_per_probe": route_us, "batches": batches}


def probe_live_cluster(ctx: Context, batches,
                       route_us_per_probe: float) -> None:
    """cluster.router against real shard processes, its registry on."""
    registry = MetricsRegistry()
    target = workloads.Cluster(ctx.sandbox, ctx.fixture, metrics=registry)
    try:
        p50_us = _live_p50_us(ctx, target.client, batches,
                              CLUSTER_LIVE_REQUESTS, "cluster.request")
    finally:
        target.close()
    counters = registry.snapshot()["counters"]
    ctx.put("cluster.router.scatter_wait_share",
            1.0 - route_us_per_probe * workloads.CLUSTER_BATCH / p50_us)
    ctx.put("cluster.router.failovers", counters.get("cluster.failovers", 0))
    ctx.put("cluster.router.hedges", counters.get("cluster.hedges", 0))
    ctx.put("cluster.router.deadline_exceeded",
            counters.get("cluster.deadline_exceeded", 0))
    ctx.notes["serve-cluster live p50 us"] = p50_us


def probe_obs(ctx: Context) -> None:
    """obs: what one instrument call costs, enabled and disabled."""
    registry = MetricsRegistry()

    def per_call_ns(fn) -> float:
        return _per_call_seconds(fn, OBS_CALLS) * 1e9

    def phase():
        with registry.phase("bench.phase"):
            pass

    ctx.put("obs.inc_ns", per_call_ns(lambda: registry.inc("bench.counter")))
    ctx.put("obs.observe_ns",
            per_call_ns(lambda: registry.observe("bench.histogram", 1.0)))
    ctx.put("obs.phase_ns", per_call_ns(phase))
    ctx.put("obs.null_inc_ns",
            per_call_ns(lambda: NULL_METRICS.inc("bench.counter")))


# ------------------------------------------------- the named workload itself


def probe_loadgen(ctx: Context, workload: str, seconds: float,
                  solve_times: dict) -> tuple:
    """``(loadgen.* metrics, outcome)`` of one workload: it is run twice
    for a slice of ``seconds`` — spans off, then spans on — so the
    difference is the tracing overhead, and the generator's own CPU
    share is known."""
    if workload in solve_times:
        return _loadgen_solve(solve_times[workload])
    bring_up, batches, warmup = workloads.serve_plan(
        workload, ctx.sandbox, ctx.seed, ctx.fixture, ctx.dbs)
    slice_s = max(seconds * 0.25, 1.0)
    target = bring_up()
    try:
        for batch in batches[:warmup]:
            target.client.probe_many(batch.positions)
        plain = workloads.Outcome()
        workloads.request_loop(target, batches, slice_s, plain)
        traced = workloads.Outcome()
        cpu0 = time.process_time()
        workloads.request_loop(
            target, batches, slice_s, traced,
            on_request=lambda i, start, end: ctx.tracer.add(
                f"loadgen.request.{workload}", start, end, op=i))
        cpu_share = (time.process_time() - cpu0) / traced.timed_s
    finally:
        target.close()
    metrics = _loadgen_metrics(
        traced, cpu_share,
        stats.percentile(traced.latencies_s, 50)
        / stats.percentile(plain.latencies_s, 50) - 1.0)
    traced.failed += plain.failed
    traced.attempted += plain.attempted
    traced.problems += plain.problems
    return metrics, traced


def _loadgen_solve(times: dict) -> tuple:
    """For a solve workload both operations already ran as layer probes:
    one with spans or the solver's registry on, one with them off."""
    out = workloads.Outcome(attempted=1)
    out.answered(0.0, times["traced_s"])
    # Solvers compute on the generator's own thread (or its forked
    # children): there is no separate client whose CPU could be the limit.
    return _loadgen_metrics(
        out, 1.0, times["traced_s"] / times["untraced_s"] - 1.0), out


def _loadgen_metrics(out, cpu_share: float, overhead: float) -> dict:
    """p99 and p99.9 are printed whatever the sample count;
    ``loadgen.requests`` beside them says whether ten lie beyond
    (1,000 and 10,000 requests)."""
    ms = [s * 1e3 for s in out.latencies_s]
    return {
        "loadgen.requests": float(len(ms)),
        "loadgen.latency_p99_ms": stats.percentile(ms, 99),
        "loadgen.latency_p999_ms": stats.percentile(ms, 99.9),
        "loadgen.client_cpu_share": cpu_share,
        "loadgen.trace_overhead_share": overhead,
    }


# ------------------------------------------------------------------ driver


def measure_all(sandbox: Sandbox, tracer: Tracer, names, seed: int,
                seconds: float, fixture, dbs: DatabaseSet) -> tuple:
    """``(shared metrics, notes, {workload: (loadgen metrics, outcome)})``
    over the fixture at path ``fixture``, loaded as ``dbs``: every layer
    probe once, then the ``loadgen`` group of each workload in ``names``.

    Order matters: everything that forks (the multiprocess solver, the
    supervised pool) runs before the first client thread exists.
    """
    ctx = Context(sandbox, tracer, seed, fixture, dbs)
    tracer.workload = "solve-seq"
    seq = probe_sequential(ctx)
    tracer.workload = "solve-mp2"
    mp2 = probe_multiproc(ctx, seq, also_untraced="solve-mp2" in names)
    probe_pool(ctx)
    probe_shm(ctx)
    tracer.workload = "sim-p16"
    sim = probe_sim(ctx, also_untraced="sim-p16" in names)
    tracer.workload = None  # these belong to no workload's path
    probe_checkpoint(ctx)
    probe_store_and_packing(ctx)
    probe_obs(ctx)
    paths = probe_pagedstore(ctx)
    probe_cache(ctx)
    served = probe_service(ctx, paths)  # stamps serve-hot / serve-cold itself
    tracer.workload = None
    probe_protocol(ctx, served["hot"])
    probe_local(ctx, paths, served["hot"])
    tracer.workload = "serve-cluster"
    routed = probe_router(ctx)
    probe_live_cluster(ctx, routed["batches"], routed["route_us_per_probe"])
    tracer.workload = "serve-hot"
    probe_live_server(ctx, served["hot"], served["hot_stage_us"])
    solve_times = {"solve-seq": seq, "solve-mp2": mp2, "sim-p16": sim}
    per_workload = {}
    for name in names:
        tracer.workload = name
        per_workload[name] = probe_loadgen(ctx, name, seconds, solve_times)
    return ctx.metrics, ctx.notes, per_workload
