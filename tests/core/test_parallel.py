"""End-to-end tests of the simulated distributed solver.

The load-bearing property throughout: the parallel solver's databases are
bit-identical to the sequential solver's, for every processor count,
partition, combining capacity, predecessor mode and cost model — the
simulation may change *when* things happen but never *what* is computed.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.combining import UpdatePacket
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.parallel.worker import KIND_DEC, KIND_WIN, RAWorker, pack_kind
from repro.core.sequential import SequentialSolver
from repro.core.termination import SafraState
from repro.games.awari_db import AwariCaptureGame
from repro.simnet.costs import CostModel
from repro.simnet.ethernet import EthernetConfig
from repro.simnet.rts import Message

MAX_EVENTS = 5_000_000


@pytest.fixture(scope="module")
def game():
    return AwariCaptureGame()


@pytest.fixture(scope="module")
def sequential(game):
    values, report = SequentialSolver(game).solve(6)
    return values


def assert_matches(par_values, seq_values, upto):
    for n in range(upto + 1):
        np.testing.assert_array_equal(
            par_values[n], seq_values[n], err_msg=f"database {n} differs"
        )


class TestPackedKinds:
    def test_roundtrip(self):
        """A receiver decodes each ``pack_kind`` tag back into its
        threshold (row ``t - 1`` of the flat state) and its kind."""
        t = np.array([1, 13, 48], dtype=np.uint8)
        k = np.array([KIND_DEC, KIND_WIN, KIND_DEC], dtype=np.uint8)
        slots, n_local = [4, 0, 9], 10
        applied = []
        receiver = SimpleNamespace(
            n_local=n_local,
            safra=SafraState(0, 2),
            _apply_updates=lambda ctx, flat, win: applied.append((flat, win)),
        )
        packet = UpdatePacket(positions=slots, kinds=pack_kind(t, k).tolist())
        RAWorker._msg_update(
            receiver, None, Message(1, 0, "UPDATE", packet, packet.size_bytes)
        )
        (flat, win), = applied
        assert [divmod(f, n_local) for f in flat] == [
            (tt - 1, s) for tt, s in zip(t.tolist(), slots)
        ]
        assert win == k.tolist()


class TestEquivalence:
    @pytest.mark.parametrize("procs", [1, 2, 3, 8])
    def test_processor_counts(self, game, sequential, procs):
        cfg = ParallelConfig(n_procs=procs)
        values, _ = ParallelSolver(game, cfg).solve(6, max_events=MAX_EVENTS)
        assert_matches(values, sequential, 6)

    @pytest.mark.parametrize("partition", ["block", "cyclic", "hash"])
    def test_partitions(self, game, sequential, partition):
        cfg = ParallelConfig(n_procs=5, partition=partition)
        values, _ = ParallelSolver(game, cfg).solve(6, max_events=MAX_EVENTS)
        assert_matches(values, sequential, 6)

    @pytest.mark.parametrize("mode", ["unmove", "csr"])
    def test_predecessor_modes(self, game, sequential, mode):
        cfg = ParallelConfig(n_procs=4, predecessor_mode=mode)
        values, _ = ParallelSolver(game, cfg).solve(5, max_events=MAX_EVENTS)
        assert_matches(values, sequential, 5)

    @pytest.mark.parametrize("capacity", [1, 2, 16, 4096])
    def test_combining_capacities(self, game, sequential, capacity):
        cfg = ParallelConfig(n_procs=4, combining_capacity=capacity)
        values, _ = ParallelSolver(game, cfg).solve(5, max_events=MAX_EVENTS)
        assert_matches(values, sequential, 5)

    def test_timing_independence(self, game, sequential):
        """Different hardware (cost model, slow network) must not change
        the computed databases — only the measurements."""
        for cpu, msg in [(0.1, 10.0), (10.0, 0.1)]:
            cfg = ParallelConfig(
                n_procs=4,
                costs=CostModel().scaled(cpu_factor=cpu, msg_factor=msg),
                ethernet=EthernetConfig(bandwidth_bps=1e6),
            )
            values, _ = ParallelSolver(game, cfg).solve(5, max_events=MAX_EVENTS)
            assert_matches(values, sequential, 5)

    def test_work_batch_independence(self, game, sequential):
        for batch in (7, 100000):
            cfg = ParallelConfig(n_procs=3, work_batch=batch)
            values, _ = ParallelSolver(game, cfg).solve(5, max_events=MAX_EVENTS)
            assert_matches(values, sequential, 5)

    def test_rule_variants_parallel(self, game):
        from repro.games.awari import AwariRules, GrandSlam

        g = AwariCaptureGame(AwariRules(grand_slam=GrandSlam.ALLOWED))
        seq, _ = SequentialSolver(g).solve(5)
        cfg = ParallelConfig(n_procs=4)
        par, _ = ParallelSolver(g, cfg).solve(5, max_events=MAX_EVENTS)
        assert_matches(par, seq, 5)


class TestDeterminism:
    def test_repeat_runs_bit_identical_stats(self, game):
        cfg = ParallelConfig(n_procs=4)
        v1, s1 = ParallelSolver(game, cfg).solve(5, max_events=MAX_EVENTS)
        v2, s2 = ParallelSolver(game, cfg).solve(5, max_events=MAX_EVENTS)
        assert_matches(v1, v2, 5)
        for a, b in zip(s1, s2):
            assert a.makespan_seconds == b.makespan_seconds
            assert a.packets_sent == b.packets_sent
            assert a.events == b.events


class TestRunStats:
    @pytest.fixture(scope="class")
    def run(self, game):
        cfg = ParallelConfig(n_procs=4, combining_capacity=32)
        seq, _ = SequentialSolver(game).solve(6)
        lower = {n: seq[n] for n in range(6)}
        values, stats = ParallelSolver(game, cfg).solve_database(
            6, lower, max_events=MAX_EVENTS
        )
        return values, stats, seq

    def test_values_match(self, run):
        values, _, seq = run
        np.testing.assert_array_equal(values, seq[6])

    def test_update_conservation(self, game):
        """Every generated update is either applied locally or shipped in
        exactly one packet, and every shipped update is applied remotely
        (buffers fully drain before termination)."""
        from repro.core.graph import build_database_graph
        from repro.core.parallel.worker import RAWorker
        from repro.core.partition import make_partition
        from repro.simnet.rts import SPMDRuntime

        seq, _ = SequentialSolver(game).solve(5)
        graph = build_database_graph(game, 5, {n: seq[n] for n in range(5)})
        partition = make_partition("cyclic", graph.size, 4)
        cfg = ParallelConfig(combining_capacity=16)
        workers = [RAWorker(r, graph, partition, 5, cfg) for r in range(4)]
        runtime = SPMDRuntime(workers, costs=cfg.costs)
        runtime.run(max_events=MAX_EVENTS)
        stats = runtime.node_stats

        def total(name):
            return sum(s.counters.get(name, 0) for s in stats)

        generated = total("updates_generated")
        local = total("updates_local")
        sent = total("updates_sent")
        applied = total("updates_applied")
        assert generated == local + sent
        assert applied == local + sent
        # Nothing left buffered at the end.
        assert all(w.buffers.total_pending == 0 for w in workers)

    def test_makespan_bounds(self, run):
        """Makespan is at least the critical CPU path and at most the sum
        of all CPU work plus wire time (gross sanity bounds)."""
        _, stats, _ = run
        cpu = stats.cpu_seconds_per_node
        assert stats.makespan_seconds >= max(cpu) * 0.999
        assert stats.makespan_seconds <= sum(cpu) + stats.ethernet_busy_seconds + 1.0

    def test_combining_factor_positive(self, run):
        _, stats, _ = run
        assert stats.combining_factor > 1.0

    def test_memory_accounted(self, run):
        _, stats, _ = run
        mem = stats.memory_modeled_bytes_per_node
        assert len(mem) == 4
        # 4 bytes per owned position plus replicated lower databases.
        assert all(m > 0 for m in mem)

    def test_ethernet_utilization_in_unit_range(self, run):
        _, stats, _ = run
        assert 0.0 <= stats.ethernet_utilization <= 1.0


class TestCombiningEffect:
    def test_combining_reduces_packets_and_time(self, game):
        """The paper's core claim at bench scale: combining cuts the
        number of messages by an order of magnitude and the makespan
        substantially, at identical output."""
        seq, _ = SequentialSolver(game).solve(6)
        lower = {n: seq[n] for n in range(6)}
        runs = {}
        for cap in (1, 256):
            cfg = ParallelConfig(n_procs=8, combining_capacity=cap)
            values, stats = ParallelSolver(game, cfg).solve_database(
                6, lower, max_events=MAX_EVENTS
            )
            np.testing.assert_array_equal(values, seq[6])
            runs[cap] = stats
        assert runs[256].packets_sent * 5 < runs[1].packets_sent
        assert runs[256].makespan_seconds < runs[1].makespan_seconds
        assert runs[256].combining_factor > 5.0

    def test_speedup_grows_with_processors(self, game):
        seq, _ = SequentialSolver(game).solve(6)
        lower = {n: seq[n] for n in range(6)}
        times = []
        for procs in (1, 4, 16):
            cfg = ParallelConfig(n_procs=procs)
            _, stats = ParallelSolver(game, cfg).solve_database(
                6, lower, max_events=MAX_EVENTS
            )
            times.append(stats.makespan_seconds)
        assert times[0] > times[1] > times[2]
