"""The six workloads: what each runs, times and verifies.

Every workload is a closed loop with one operation outstanding — the
callers of this system are searchers and table builders that wait for
each answer — and reports the same five end-to-end numbers (see
``Outcome.end_to_end``).  An *operation* is one complete solve on the
solve workloads and one ``probe_many`` request on the serve workloads.
Each answer is checked as soon as its clock has stopped and then
dropped, so the harness's memory does not grow with the operations done.

Sizes are chosen so one run measures for about ten seconds and still
holds enough operations for a steady median; ``bench/README.md`` says
why each workload exists and which layer dominates it.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import solve_awari
from repro.aserve.client import BinaryProbeClient
from repro.cluster.launch import launch_cluster
from repro.cluster.manifest import split_store
from repro.cluster.router import ShardRouter
from repro.core.multiproc import MultiprocessSolver
from repro.core.sequential import SequentialSolver
from repro.db.store import DatabaseSet
from repro.games.registry import capture_game
from repro.serve.pagedstore import write_paged

from bench import inputs, oracle, stats
from bench.procs import Sandbox

__all__ = ["WORKLOADS", "Outcome", "run_workload"]

#: Solve workloads build awari databases 0..SOLVE_STONES (293,930 positions).
SOLVE_STONES = 9
MP_WORKERS = 2
#: The simulated cluster builds 0..SIM_STONES on SIM_PROCS simulated nodes.
SIM_STONES = 5
SIM_PROCS = 16

BLOCK_POSITIONS = 512
HOT_CACHE_BYTES = 64 << 20  # the whole decoded store (1.26 MiB) fits
COLD_CACHE_BYTES = 64 << 10  # 5 % of the decoded store
BATCH = 256
CLUSTER_BATCH = 1024
CLUSTER_SHARDS = 2
#: Distinct batches drawn per run; the closed loop cycles through them.
POOL = 256
CLUSTER_POOL = 64
#: Requests sent before timing starts (part of set-up: they fill the cache).
WARMUP_REQUESTS = 64
CLUSTER_WARMUP_REQUESTS = 16

SOLVE_SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
#: The ungated "best window" note cuts the interval into these.
WINDOW_SECONDS = 1.0
#: An instant failure must not spin for the whole interval.
MAX_FAILED_SOLVES = 3

BENCH_SERVER = oracle.BENCH_DIR / "serverproc.py"


@dataclass
class Outcome:
    """Everything one untraced run of one workload measured."""

    starts_s: list = field(default_factory=list)  # of each answered operation
    latencies_s: list = field(default_factory=list)  # parallel to starts_s
    timed_s: float = 0.0  # seconds spent inside operations, failed ones too
    positions: int = 0  # positions solved / probes answered, verified
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_samples_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    info: dict = field(default_factory=dict)  # ungated, printed beside

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0 and not self.problems

    def tail_percentile(self) -> int:
        """90 where ten operations lie beyond it, else the upper quartile:
        ten seconds hold thousands of requests but only a handful of
        solves, and a p90 of seven samples would be their maximum."""
        return 90 if stats.supported(len(self.latencies_s), 90) else 75

    def end_to_end(self) -> dict:
        """``{metric: (value, unit)}`` — the gated numbers, each over
        every operation of the whole timed interval."""
        if not self.latencies_s:
            raise RuntimeError("no operation completed in the timed interval")
        return {
            "setup_s": (stats.percentile(self.setup_samples_s, 50), "s"),
            "op_p50_ms": (stats.percentile(self.latencies_s, 50) * 1e3, "ms"),
            "op_tail_ms": (stats.percentile(
                self.latencies_s, self.tail_percentile()) * 1e3, "ms"),
            "positions_per_s": (self.positions / self.timed_s, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def best_window_p50_ms(self) -> float:
        """The lowest median among the interval's one-second windows: what
        the quietest second read.  A note, never gated — a stall that
        hits only some windows cannot move it."""
        windows: dict = {}
        for start, latency in zip(self.starts_s, self.latencies_s):
            windows.setdefault(
                int((start - self.starts_s[0]) / WINDOW_SECONDS), []
            ).append(latency)
        return min(stats.percentile(w, 50) for w in windows.values()) * 1e3

    def answered(self, start: float, end: float) -> None:
        self.starts_s.append(start)
        self.latencies_s.append(end - start)
        self.timed_s += end - start

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest among the children
    it has reaped so far (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ------------------------------------------------------------------ solve


def _time_fresh_interpreter(imports: str, repeats: int) -> list:
    """Wall seconds of ``python -c`` that imports the solver and builds
    the game and its index tables — what a user pays before solving."""
    code = (
        f"{imports}\n"
        "from repro.games.registry import capture_game\n"
        "game = capture_game('awari')\n"
        f"[game.db_size(i) for i in game.db_sequence({SOLVE_STONES})]\n"
    )
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def _solve_loop(out: Outcome, solve, check, seconds: float,
                positions_per_solve: int) -> None:
    """Warm up once, then solve until ``seconds`` have passed.  Each
    result is checked once its clock has stopped, then dropped."""
    solve()  # first-touch costs (page faults, allocator growth) are not steady state
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           and out.failed < MAX_FAILED_SOLVES):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = solve()
        except Exception as exc:  # noqa: BLE001 — an operation that
            # raises is a failed operation, whatever it raised.
            out.timed_s += time.perf_counter() - t0
            out.fail(f"solve raised {type(exc).__name__}: {exc}")
            continue
        out.answered(t0, time.perf_counter())
        problems = check(result)
        del result  # or it would live on beside the next solve's arrays
        if problems:
            out.fail("; ".join(problems))
        else:
            out.positions += positions_per_solve
    out.peak_rss_mb = peak_rss_mb()


def sim_counts(run_stats) -> dict:
    """The simulated run's deterministic counts, summed over databases."""
    return {
        "packets_sent": sum(s.packets_sent for s in run_stats),
        "updates_sent": sum(s.updates_sent for s in run_stats),
        "events": sum(s.events for s in run_stats),
        "sim_makespan_s": sum(s.makespan_seconds for s in run_stats),
    }


def _solve_seq(game):
    return SequentialSolver(game).solve(SOLVE_STONES)[0]


def _solve_mp2(game):
    return MultiprocessSolver(game, workers=MP_WORKERS).solve(SOLVE_STONES)


def _solve_sim(game):
    dbs, run_stats = solve_awari(SIM_STONES, procs=SIM_PROCS)
    return dbs.values, sim_counts(run_stats)


#: name → (solve(game) → values or (values, counts), target, set-up import)
SOLVE_WORKLOADS = {
    "solve-seq": (_solve_seq, SOLVE_STONES,
                  "from repro.core.sequential import SequentialSolver"),
    "solve-mp2": (_solve_mp2, SOLVE_STONES,
                  "from repro.core.multiproc import MultiprocessSolver"),
    "sim-p16": (_solve_sim, SIM_STONES, "from repro.api import solve_awari"),
}


def run_solve_workload(name: str, seconds: float) -> Outcome:
    solve, target, imports = SOLVE_WORKLOADS[name]
    out = Outcome()
    game = capture_game(oracle.GAME)
    expected = oracle.load_expected()
    ids = range(target + 1)
    first_counts: list = []

    def check(result):
        values, counts = result if isinstance(result, tuple) else (result, None)
        problems = oracle.mismatches(values, expected, ids)
        # A simulation's counts are part of its answer: they must repeat.
        if counts is not None and first_counts and counts != first_counts[0]:
            problems.append(f"simulated counts changed between solves: "
                            f"{counts} vs {first_counts[0]}")
        if counts is not None and not first_counts:
            first_counts.append(counts)
        return problems

    _solve_loop(out, lambda: solve(game), check, seconds,
                sum(game.db_size(i) for i in game.db_sequence(target)))
    if first_counts:
        out.info.update(first_counts[0])
    # After the loop, so these short-lived children are not in peak_rss_mb.
    out.setup_samples_s = _time_fresh_interpreter(imports, SOLVE_SETUP_REPEATS)
    return out


# ------------------------------------------------------------------ serve


class SingleServer:
    """fixture → ``write_paged`` → server subprocess → ``BinaryProbeClient``."""

    def __init__(self, sandbox: Sandbox, fixture, cache_bytes: int):
        self._sandbox = sandbox
        directory = sandbox.mkdir("store")
        dbs = DatabaseSet.load(fixture)
        self.store_path = directory / "store.pgdb"
        write_paged(dbs, self.store_path, block_positions=BLOCK_POSITIONS)
        self.process, (host, port) = sandbox.spawn_python(
            BENCH_SERVER, self.store_path, cache_bytes)
        self.client = BinaryProbeClient(host, int(port))

    def alive(self) -> bool:
        return self.process.poll() is None

    def cache_stats(self) -> dict:
        return self.client.stats()

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self._sandbox.stop(self.process)


class Cluster:
    """fixture → ``split_store`` → ``launch_cluster`` → ``ShardRouter``,
    every protocol and transport argument left at its default so that a
    later consolidation of transports moves this number legitimately."""

    def __init__(self, sandbox: Sandbox, fixture, metrics=None):
        self._sandbox = sandbox
        directory = sandbox.mkdir("cluster")
        split_store(fixture, directory, CLUSTER_SHARDS,
                    block_positions=BLOCK_POSITIONS)
        self.supervisor = launch_cluster(directory)
        sandbox.adopt(self.supervisor)
        self.client = ShardRouter.from_topology(
            self.supervisor.topology, metrics=metrics)

    def alive(self) -> bool:
        return self.supervisor.alive() == CLUSTER_SHARDS

    def cache_stats(self) -> dict:
        per_shard = self.client.stats()["per_shard"]
        hits = sum(s["hits"] for s in per_shard)
        misses = sum(s["misses"] for s in per_shard)
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "evictions": sum(s["evictions"] for s in per_shard),
            "peak_resident_bytes": max(
                s["peak_resident_bytes"] for s in per_shard),
            "budget_bytes": per_shard[0]["budget_bytes"],
        }

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self._sandbox.stop(self.supervisor)


def request_loop(target, batches, seconds: float, out: Outcome,
                 on_request=None) -> None:
    """The closed loop: one request outstanding, cycling through
    ``batches`` until ``seconds`` have passed.  Every answer is compared
    with the fixture's values between two requests, outside both clocks.
    A dead server ends the loop — its remaining requests cannot be sent,
    and the failure is already counted."""
    n = len(batches)
    number = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        batch = batches[number % n]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            values = target.client.probe_many(batch.positions)
        except Exception as exc:  # noqa: BLE001 — refused, timed out or
            # disconnected: all are failed operations.
            out.timed_s += time.perf_counter() - t0
            out.fail(f"request {number} raised {type(exc).__name__}: {exc}")
            if not target.alive():
                out.problems.append("server died mid-run; loop abandoned")
                break
        else:
            t1 = time.perf_counter()
            out.answered(t0, t1)
            want = batch.expected
            if values.shape == want.shape and np.array_equal(values, want):
                out.positions += int(want.shape[0])
            else:
                out.fail(f"request {number}: values differ from the fixture")
            if on_request is not None:
                on_request(number, t0, t1)
        number += 1


def _serve_workload(bring_up, batches, warmup: int,
                    seconds: float) -> Outcome:
    out = Outcome()
    target = None
    for repeat in range(SERVE_SETUP_REPEATS):
        t0 = time.perf_counter()
        target = bring_up()
        for batch in batches[:warmup]:
            target.client.probe_many(batch.positions)
        out.setup_samples_s.append(time.perf_counter() - t0)
        if repeat < SERVE_SETUP_REPEATS - 1:
            target.close()
    try:
        cpu0 = time.process_time()
        request_loop(target, batches, seconds, out)
        out.info["client_cpu_share"] = (
            (time.process_time() - cpu0) / out.timed_s if out.timed_s else 0.0)
        if target.alive():
            cache = target.cache_stats()
            out.info["cache_hit_rate"] = cache["hit_rate"]
            out.info["cache_evictions"] = cache["evictions"]
            out.info["cache_peak_resident_bytes"] = cache["peak_resident_bytes"]
            # The cache's contract: never more than the budget plus the
            # one block being loaded.
            if cache["peak_resident_bytes"] > (
                    cache["budget_bytes"] + 2 * BLOCK_POSITIONS):
                out.problems.append(
                    f"cache held {cache['peak_resident_bytes']} bytes, over "
                    f"its budget of {cache['budget_bytes']} plus one block")
    finally:
        target.close()
    out.info["batch_digest"] = inputs.digest(batches)
    out.peak_rss_mb = peak_rss_mb()
    return out


#: name → (cache bytes or None for the cluster, batch, pool, warm-up, skew)
SERVE_WORKLOADS = {
    "serve-hot": (HOT_CACHE_BYTES, BATCH, POOL, WARMUP_REQUESTS, "hot"),
    "serve-cold": (COLD_CACHE_BYTES, BATCH, POOL, WARMUP_REQUESTS, "uniform"),
    "serve-cluster": (None, CLUSTER_BATCH, CLUSTER_POOL,
                      CLUSTER_WARMUP_REQUESTS, "hot"),
}


def serve_plan(name: str, sandbox: Sandbox, seed: int, fixture,
               dbs: DatabaseSet) -> tuple:
    """``(bring_up, batches, warm-up requests)`` of one serve workload
    over the fixture at path ``fixture``, loaded as ``dbs`` — shared by
    the untraced run and the traced ``loadgen`` probe."""
    cache_bytes, batch, pool, warmup, skew = SERVE_WORKLOADS[name]
    batches = inputs.make_batches(dbs.values, seed, pool, batch, skew)
    if cache_bytes is None:
        return (lambda: Cluster(sandbox, fixture)), batches, warmup
    return (lambda: SingleServer(sandbox, fixture, cache_bytes)), batches, warmup


WORKLOADS = (*SOLVE_WORKLOADS, *SERVE_WORKLOADS)


def run_workload(name: str, seed: int, seconds: float,
                 fixture=None) -> Outcome:
    """One untraced run of one workload inside its own sandbox; serve
    workloads need ``fixture``, the ``(path, DatabaseSet)`` of
    ``oracle.ensure_fixture``."""
    with Sandbox(oracle.OUT_DIR) as sandbox:
        if name in SOLVE_WORKLOADS:
            return run_solve_workload(name, seconds)
        return _serve_workload(
            *serve_plan(name, sandbox, seed, *fixture), seconds)
