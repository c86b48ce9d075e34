"""Edge cases of the distributed worker protocol."""

import gc
import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combining import UpdatePacket
from repro.core.graph import CSR, build_database_graph
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.parallel.worker import (
    KIND_DEC,
    KIND_WIN,
    RAWorker,
    pack_kind,
)
from repro.core.partition import CyclicPartition, make_partition
from repro.core.sequential import SequentialSolver
from repro.core.values import LOSS, UNKNOWN, WIN
from repro.games.awari_db import AwariCaptureGame
from repro.games.synthetic import SyntheticCaptureGame
from repro.simnet.rts import Message, NodeStats, SPMDRuntime

MAX_EVENTS = 3_000_000


@pytest.fixture(scope="module")
def game():
    return AwariCaptureGame()


@pytest.fixture(scope="module")
def seq(game):
    values, _ = SequentialSolver(game).solve(4)
    return values


class TestDegenerateShapes:
    def test_more_processors_than_positions(self, game, seq):
        """db 1 has 12 positions; run it on 20 workers (8 own nothing)."""
        cfg = ParallelConfig(n_procs=20)
        values, stats = ParallelSolver(game, cfg).solve_database(
            1, {0: seq[0]}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[1])
        assert stats.n_procs == 20

    def test_single_position_database(self, game):
        """db 0: one position, bound 0 — the degenerate fast path."""
        cfg = ParallelConfig(n_procs=4)
        values, _ = ParallelSolver(game, cfg).solve_database(
            0, {}, max_events=MAX_EVENTS
        )
        assert values.shape == (1,)
        assert values[0] == 0

    def test_tiny_work_batches(self, game, seq):
        cfg = ParallelConfig(n_procs=4, work_batch=1)
        values, _ = ParallelSolver(game, cfg).solve_database(
            4, {n: seq[n] for n in range(4)}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[4])

    def test_tiny_scan_batches(self, game, seq):
        cfg = ParallelConfig(n_procs=3, scan_batch=1)
        values, _ = ParallelSolver(game, cfg).solve_database(
            3, {n: seq[n] for n in range(3)}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[3])


class TestTimersAndTokens:
    def test_zero_linger(self, game, seq):
        cfg = ParallelConfig(n_procs=4, flush_linger=0.0)
        values, _ = ParallelSolver(game, cfg).solve_database(
            4, {n: seq[n] for n in range(4)}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[4])

    def test_huge_linger_still_terminates(self, game, seq):
        cfg = ParallelConfig(n_procs=4, flush_linger=10.0)
        values, stats = ParallelSolver(game, cfg).solve_database(
            4, {n: seq[n] for n in range(4)}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[4])
        assert stats.makespan_seconds > 0

    def test_aggressive_token_interval(self, game, seq):
        """Probing for termination every millisecond costs tokens but
        cannot corrupt anything."""
        cfg = ParallelConfig(n_procs=4, token_interval=1e-3)
        values, stats = ParallelSolver(game, cfg).solve_database(
            4, {n: seq[n] for n in range(4)}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[4])
        lazy = ParallelConfig(n_procs=4, token_interval=1.0)
        _, lazy_stats = ParallelSolver(game, lazy).solve_database(
            4, {n: seq[n] for n in range(4)}, max_events=MAX_EVENTS
        )
        assert stats.token_rounds >= lazy_stats.token_rounds

    def test_safra_never_terminates_early(self, game, seq):
        """With a glacial network (seconds of latency) updates stay in
        flight a long time; the run must still finish with exact values —
        early termination would freeze positions as draws."""
        from repro.simnet.ethernet import EthernetConfig

        cfg = ParallelConfig(
            n_procs=4,
            token_interval=1e-3,  # probe constantly, tempting fate
            ethernet=EthernetConfig(
                bandwidth_bps=1e4, propagation_delay_s=0.5
            ),
        )
        values, _ = ParallelSolver(game, cfg).solve_database(
            3, {n: seq[n] for n in range(3)}, max_events=MAX_EVENTS
        )
        np.testing.assert_array_equal(values, seq[3])


class TestTeardown:
    def test_finished_cluster_dies_by_refcount(self, game, seq):
        """No reference cycle: with the cycle collector off, dropping the
        last references frees the runtime, its Ethernet and every worker
        (with its propagation state) at once."""
        graph = build_database_graph(game, 3, {n: seq[n] for n in range(3)})
        partition = make_partition("cyclic", graph.size, 4)
        workers = [
            RAWorker(r, graph, partition, 3, ParallelConfig()) for r in range(4)
        ]
        runtime = SPMDRuntime(workers)
        gc.disable()
        try:
            runtime.run(max_events=MAX_EVENTS)
            refs = [weakref.ref(o) for o in (runtime, runtime.ethernet, *workers)]
            del runtime, workers
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown predecessor_mode 'psychic'"):
            ParallelConfig(predecessor_mode="psychic")

    def test_combining_capacity_validated_in_buffers(self, game, seq):
        cfg = ParallelConfig(n_procs=2, combining_capacity=0)
        with pytest.raises(ValueError):
            ParallelSolver(game, cfg).solve_database(
                2, {n: seq[n] for n in range(2)}
            )


N_SLOTS = 6
BOUND = 4


def _reference_apply(status, counts, best_exit, frontier, slots, thresholds, kinds):
    """The per-threshold apply the flat pass replaced: one ``np.unique``
    over the thresholds, then per threshold (row ``t - 1``) WINs
    deduplicated by ``np.unique`` and decrements by ``np.subtract.at``."""
    for t in np.unique(thresholds):
        t = int(t)
        sel = thresholds == t
        row, cnt = status[t - 1], counts[t - 1]
        win_slots = slots[sel][kinds[sel] == KIND_WIN]
        if win_slots.size:
            new_win = np.unique(win_slots[row[win_slots] == UNKNOWN])
            if new_win.size:
                row[new_win] = WIN
                frontier.append((t, new_win))
        dec_slots = slots[sel][kinds[sel] == KIND_DEC]
        if dec_slots.size:
            np.subtract.at(cnt, dec_slots, 1)
            zeroed = np.unique(dec_slots)
            new_loss = zeroed[
                (cnt[zeroed] == 0)
                & (row[zeroed] == UNKNOWN)
                & (best_exit[zeroed] <= -t)
            ]
            if new_loss.size:
                row[new_loss] = LOSS
                frontier.append((t, new_loss))


_updates = st.lists(
    st.tuples(
        st.integers(1, BOUND),
        st.integers(0, N_SLOTS - 1),
        st.sampled_from([KIND_DEC, KIND_WIN]),
    ),
    max_size=30,
)


class TestFlatApply:
    @given(
        best_exit=st.lists(
            st.integers(-BOUND - 1, 2), min_size=N_SLOTS, max_size=N_SLOTS
        ),
        status=st.lists(
            st.sampled_from([UNKNOWN, UNKNOWN, WIN, LOSS]),
            min_size=BOUND * N_SLOTS,
            max_size=BOUND * N_SLOTS,
        ),
        counts=st.lists(
            st.integers(0, 3),
            min_size=BOUND * N_SLOTS,
            max_size=BOUND * N_SLOTS,
        ),
        batches=st.lists(_updates, min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_threshold_reference(self, best_exit, status, counts, batches):
        """Update packets with duplicates, mixed thresholds and WIN + DEC
        on one slot leave ``status``, ``counts`` and the frontier sequence
        exactly as the per-threshold apply did (counters in the dtype the
        seed chose, wrapping alike when a batch overdraws them)."""
        graph = SimpleNamespace(
            best_exit=np.asarray(best_exit, dtype=np.int16),
            out_degree=np.zeros(N_SLOTS, dtype=np.int32),
            reverse=CSR(
                np.zeros(N_SLOTS + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
            ),
        )
        worker = RAWorker(
            0, graph, CyclicPartition(N_SLOTS, 1), BOUND, ParallelConfig()
        )
        ctx = SimpleNamespace(charge=lambda seconds: None, stats=NodeStats())
        worker._begin_run(ctx)
        worker.frontier.clear()
        shape = (BOUND, N_SLOTS)
        worker.status[...] = np.reshape(status, shape)
        worker.counts[...] = np.reshape(counts, shape)
        ref_status, ref_counts = worker.status.copy(), worker.counts.copy()
        ref_frontier = deque()
        for batch in batches:
            thresholds, slots, kinds = (
                np.asarray(batch, dtype=np.int64).reshape(-1, 3).T.copy()
            )
            # Packets carry lists of Python ints, as the buffers ship them.
            packet = UpdatePacket(
                positions=slots.tolist(), kinds=pack_kind(thresholds, kinds).tolist()
            )
            worker._msg_update(ctx, Message(1, 0, "UPDATE", packet, packet.size_bytes))
            _reference_apply(
                ref_status, ref_counts, worker.best_exit, ref_frontier,
                slots, thresholds, kinds,
            )
        np.testing.assert_array_equal(worker.status, ref_status)
        np.testing.assert_array_equal(worker.counts, ref_counts)
        assert list(worker.frontier) == [(t, s.tolist()) for t, s in ref_frontier]
        assert all(
            type(t) is int and all(type(x) is int for x in s)
            for t, s in worker.frontier
        )
        assert ctx.stats.counters.get("updates_applied", 0) == sum(map(len, batches))


class TestSyntheticEdge:
    def test_databases_with_empty_levels(self):
        """Synthetic games can have 1-position levels anywhere in the
        chain; the pipeline must thread them through."""
        game = SyntheticCaptureGame(levels=5, max_size=3, seed=11)
        seq, _ = SequentialSolver(game).solve(4)
        cfg = ParallelConfig(n_procs=3, predecessor_mode="unmove")
        par, _ = ParallelSolver(game, cfg).solve(4, max_events=MAX_EVENTS)
        for d in range(5):
            np.testing.assert_array_equal(par[d], seq[d])
