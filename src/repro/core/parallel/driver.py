"""Driver for the parallel retrograde-analysis solver.

Builds the simulated cluster, runs one SPMD job per database, and
collects per-run statistics (simulated makespan, message traffic,
combining factors, Ethernet utilization, modeled memory).  The databases
produced are asserted by the test suite to be bit-identical to the
sequential solver's — the simulation changes *when* things happen, never
*what* is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...games.base import CaptureGame
from ...obs import NULL_METRICS
from ...simnet.costs import CostModel, DEFAULT_COSTS
from ...simnet.ethernet import EthernetConfig
from ...simnet.rts import SPMDRuntime
from ..graph import build_database_graph
from ..partition import make_partition
from ..values import exit_values
from .worker import RAWorker

__all__ = ["ParallelConfig", "DatabaseRunStats", "ParallelSolver"]


@dataclass(frozen=True)
class ParallelConfig:
    """Cluster and algorithm knobs for a parallel solve; every worker
    reads the same instance."""

    n_procs: int = 8
    combining_capacity: int = 256
    partition: str = "cyclic"
    #: What a simulated node is charged for finding parents: run-time
    #: un-moving (``unmove``) or an up-front edge exchange (``csr``).
    predecessor_mode: str = "unmove"
    work_batch: int = 1024
    scan_batch: int = 4096
    #: How long a worker lingers before force-flushing partial buffers.
    #: While remote updates keep arriving faster than this, buffers only
    #: leave when full — the behaviour that makes combining effective.
    flush_linger: float = 5e-3
    #: Coordinator pause between termination-detection rounds.
    token_interval: float = 50e-3
    costs: CostModel = DEFAULT_COSTS
    ethernet: EthernetConfig = field(default_factory=EthernetConfig)
    #: Optional per-node slowdown factors (heterogeneous pool ablation).
    node_speeds: tuple | None = None

    def __post_init__(self):
        if self.predecessor_mode not in ("unmove", "csr"):
            raise ValueError(f"unknown predecessor_mode {self.predecessor_mode!r}")


@dataclass
class DatabaseRunStats:
    """Measurements of one simulated parallel database construction."""

    db_id: object
    n_procs: int
    size: int
    makespan_seconds: float
    cpu_seconds_per_node: list
    packets_sent: int
    updates_sent: int
    updates_local: int
    bytes_sent: int
    control_messages: int
    token_rounds: int
    ethernet_busy_seconds: float
    ethernet_frames: int
    combining_factor: float
    memory_modeled_bytes_per_node: list
    events: int

    @property
    def cpu_seconds_total(self) -> float:
        return float(sum(self.cpu_seconds_per_node))

    @property
    def ethernet_utilization(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return min(self.ethernet_busy_seconds / self.makespan_seconds, 1.0)

    @property
    def load_imbalance(self) -> float:
        cpu = np.asarray(self.cpu_seconds_per_node)
        mean = cpu.mean()
        return float(cpu.max() / mean) if mean > 0 else 1.0


class ParallelSolver:
    """Distributed RA over a simulated Ethernet cluster."""

    def __init__(
        self,
        game: CaptureGame,
        config: ParallelConfig | None = None,
        metrics=None,
    ):
        self.game = game
        self.config = config or ParallelConfig()
        #: Metrics registry (``parallel.`` prefix; the simulated runtime
        #: reports through the same registry under ``simnet.``).
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def solve_database(
        self, db_id, lower_values: dict, max_events: int | None = None
    ) -> tuple[np.ndarray, DatabaseRunStats]:
        """Run one simulated parallel database construction."""
        with self.metrics.phase("parallel.host_wall_seconds"):
            return self._solve_database(db_id, lower_values, max_events)

    def _solve_database(self, db_id, lower_values, max_events):
        cfg = self.config
        graph = build_database_graph(self.game, db_id, lower_values)
        partition = make_partition(cfg.partition, graph.size, cfg.n_procs)
        bound = self.game.value_bound(db_id)
        lower_bytes = sum(int(v.shape[0]) for v in lower_values.values())
        workers = [
            RAWorker(r, graph, partition, bound, cfg, lower_values_bytes=lower_bytes)
            for r in range(cfg.n_procs)
        ]
        runtime = SPMDRuntime(
            workers,
            costs=cfg.costs,
            ethernet_config=cfg.ethernet,
            node_speeds=list(cfg.node_speeds) if cfg.node_speeds else None,
            metrics=self.metrics,
        )
        makespan = runtime.run(max_events=max_events)

        # Gather the distributed shards into the canonical value array.
        if bound == 0:
            values = exit_values(graph.best_exit)
        else:
            values = np.zeros(graph.size, dtype=np.int16)
            for w in workers:
                idx, vals = w.local_values()
                values[idx] = vals

        stats = self._collect_stats(db_id, graph.size, runtime, workers, makespan)
        return values, stats

    def solve(self, target, max_events: int | None = None):
        """Solve all databases up to ``target``; returns (values, [stats])."""
        values: dict = {}
        all_stats = []
        for db_id in self.game.db_sequence(target):
            vals, stats = self.solve_database(db_id, values, max_events=max_events)
            values[db_id] = vals
            all_stats.append(stats)
        return values, all_stats

    # ------------------------------------------------------------- helpers

    def _collect_stats(self, db_id, size, runtime, workers, makespan):
        node_stats = runtime.node_stats
        counters = [s.counters for s in node_stats]

        def total(name):
            return sum(c.get(name, 0) for c in counters)

        packets = total("packets_sent")
        updates_sent = total("updates_sent")
        app_msgs = packets
        all_msgs = sum(s.msgs_sent for s in node_stats)
        combining = [w.buffers.stats for w in workers]
        combined_updates = sum(c.updates for c in combining)
        combined_packets = sum(c.packets for c in combining)
        stats = DatabaseRunStats(
            db_id=db_id,
            n_procs=runtime.n_nodes,
            size=size,
            makespan_seconds=makespan,
            cpu_seconds_per_node=[s.cpu_seconds for s in node_stats],
            packets_sent=packets,
            updates_sent=updates_sent,
            updates_local=total("updates_local"),
            bytes_sent=sum(s.bytes_sent for s in node_stats),
            control_messages=all_msgs - app_msgs,
            token_rounds=total("token_rounds"),
            ethernet_busy_seconds=runtime.ethernet.stats.busy_seconds,
            ethernet_frames=runtime.ethernet.stats.frames,
            combining_factor=(
                combined_updates / combined_packets if combined_packets else 0.0
            ),
            memory_modeled_bytes_per_node=[
                w.memory_modeled_bytes() for w in workers
            ],
            events=runtime.sim.events_processed,
        )
        m = self.metrics
        if m.enabled:
            m.inc("parallel.databases")
            m.inc("parallel.packets_sent", stats.packets_sent)
            m.inc("parallel.updates_sent", stats.updates_sent)
            m.inc("parallel.updates_local", stats.updates_local)
            m.inc("parallel.bytes_sent", stats.bytes_sent)
            m.inc("parallel.control_messages", stats.control_messages)
            m.inc("parallel.token_rounds", stats.token_rounds)
            m.inc("parallel.events", stats.events)
            # Combining counters mirror the workers' CombiningStats exactly
            # (asserted in tests): the registry is the one surface the
            # benchmarks and the paper-table tooling need to read.
            m.inc("parallel.combining.updates", combined_updates)
            m.inc("parallel.combining.packets", combined_packets)
            m.inc(
                "parallel.combining.forced_flushes",
                sum(c.forced_flushes for c in combining),
            )
            m.inc(
                "parallel.combining.capacity_flushes",
                sum(c.capacity_flushes for c in combining),
            )
            m.set_gauge("parallel.n_procs", stats.n_procs)
            m.set_gauge("parallel.combining_factor", stats.combining_factor)
            m.observe("parallel.makespan_seconds", stats.makespan_seconds)
            m.observe("parallel.cpu_seconds_total", stats.cpu_seconds_total)
            m.observe("parallel.load_imbalance", stats.load_imbalance)
            m.observe("parallel.db_positions", stats.size)
        return stats
