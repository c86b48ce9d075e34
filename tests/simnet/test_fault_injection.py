"""Fault-injection tests: what the protocol assumes, demonstrated.

The paper's system ran on Amoeba's reliable transport.  Our algorithm
likewise assumes reliable FIFO delivery — these tests *document* that
assumption by injecting faults and checking the failure is loud (the
run never silently produces a wrong database).
"""

import numpy as np
import pytest

from repro.core.graph import build_database_graph
from repro.core.parallel.driver import ParallelConfig
from repro.core.parallel.worker import RAWorker
from repro.core.partition import make_partition
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.simnet.engine import SimulationError
from repro.simnet.ethernet import Ethernet
from repro.simnet.rts import SPMDRuntime


class DroppyEthernet(Ethernet):
    """Drops the nth UPDATE transmission outright."""

    def __init__(self, *args, drop_nth: int = 5, **kwargs):
        super().__init__(*args, **kwargs)
        self._updates_seen = 0
        self._drop_nth = drop_nth
        self.dropped = 0

    def transmit(self, src, dst, size_bytes, message):
        if getattr(message, "tag", None) == "UPDATE":
            self._updates_seen += 1
            if self._updates_seen == self._drop_nth:
                self.dropped += 1
                return  # the frame vanishes on the wire
        super().transmit(src, dst, size_bytes, message)


def build_cluster(game, n, procs, lower, ethernet_cls=Ethernet, **eth_kwargs):
    graph = build_database_graph(game, n, lower)
    partition = make_partition("cyclic", graph.size, procs)
    cfg = ParallelConfig(combining_capacity=16)
    workers = [RAWorker(r, graph, partition, n, cfg) for r in range(procs)]
    runtime = SPMDRuntime(workers, costs=cfg.costs)
    runtime.ethernet = ethernet_cls(runtime.sim, procs, **eth_kwargs)
    runtime.ethernet.attach(runtime._deliver)
    return runtime, workers


@pytest.fixture(scope="module")
def setup():
    game = AwariCaptureGame()
    values, _ = SequentialSolver(game).solve(5)
    return game, values


class TestLostMessage:
    def test_lost_update_hangs_loudly(self, setup):
        """A dropped update packet stalls the affected positions; Safra
        (correctly!) never declares termination because the sent/received
        counters can no longer balance — the run spins on token rounds
        until the event guard trips instead of finishing wrong."""
        game, values = setup
        lower = {n: values[n] for n in range(5)}
        runtime, workers = build_cluster(
            game, 5, 4, lower, ethernet_cls=DroppyEthernet, drop_nth=5
        )
        with pytest.raises(SimulationError, match="livelock"):
            runtime.run(max_events=400_000)
        assert runtime.ethernet.dropped == 1

    def test_baseline_same_cluster_completes(self, setup):
        game, values = setup
        lower = {n: values[n] for n in range(5)}
        runtime, workers = build_cluster(game, 5, 4, lower)
        runtime.run(max_events=400_000)
        out = np.zeros(game.db_size(5), dtype=np.int16)
        for w in workers:
            idx, vals = w.local_values()
            out[idx] = vals
        np.testing.assert_array_equal(out, values[5])


class TestExtremeNetworks:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bandwidth_bps=5e3),          # ~500 B/s effective
            dict(propagation_delay_s=1.0),     # interplanetary Ethernet
            dict(contention_slot_penalty_s=5e-3),
        ],
        ids=["crawling", "high-latency", "collision-storm"],
    )
    def test_pathological_networks_still_exact(self, setup, kwargs):
        """Any *reliable* network, however awful, yields the exact
        database — only the makespan suffers."""
        from repro.core.parallel.driver import ParallelConfig, ParallelSolver
        from repro.simnet.ethernet import EthernetConfig

        game, values = setup
        lower = {n: values[n] for n in range(5)}
        cfg = ParallelConfig(n_procs=3, ethernet=EthernetConfig(**kwargs))
        out, stats = ParallelSolver(game, cfg).solve_database(
            5, lower, max_events=10_000_000
        )
        np.testing.assert_array_equal(out, values[5])
        assert stats.makespan_seconds > 0
