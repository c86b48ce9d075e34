"""Multiprocessing backend tests (correctness only — this repository's CI
environment has a single core, so wall-clock speedups are not asserted)."""

import numpy as np
import pytest

from repro.core.multiproc import MultiprocessSolver
from repro.core.sequential import SequentialSolver
from repro.core.shm import ShmArena
from repro.games.awari_db import AwariCaptureGame
from repro.games.kalah import KalahCaptureGame
from repro.games.synthetic import SyntheticCaptureGame
from repro.obs import MetricsRegistry


class TestMultiprocessSolver:
    def test_awari_matches_sequential(self):
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(6)
        par = MultiprocessSolver(game, workers=3).solve(6)
        for n in range(7):
            np.testing.assert_array_equal(par[n], seq[n])

    def test_kalah_matches_sequential(self):
        game = KalahCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        par = MultiprocessSolver(game, workers=2).solve(5)
        for n in range(6):
            np.testing.assert_array_equal(par[n], seq[n])

    def test_synthetic_matches_sequential(self):
        game = SyntheticCaptureGame(levels=4, max_size=40, seed=9)
        seq, _ = SequentialSolver(game).solve(3)
        par = MultiprocessSolver(game, workers=2).solve(3)
        for d in range(4):
            np.testing.assert_array_equal(par[d], seq[d])

    def test_single_worker_falls_back_inline(self):
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(4)
        par = MultiprocessSolver(game, workers=1).solve(4)
        for n in range(5):
            np.testing.assert_array_equal(par[n], seq[n])

    def test_parallel_graph_build_equals_sequential_build(self):
        from repro.core.graph import build_database_graph

        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        lower = {n: seq[n] for n in range(6)}
        solver = MultiprocessSolver(game, workers=2)
        mp_graph = solver._build_graph(6, lower, chunk=1 << 12)
        ref = build_database_graph(game, 6, lower)
        np.testing.assert_array_equal(mp_graph.best_exit, ref.best_exit)
        np.testing.assert_array_equal(mp_graph.out_degree, ref.out_degree)
        np.testing.assert_array_equal(
            mp_graph.forward.indptr, ref.forward.indptr
        )
        np.testing.assert_array_equal(
            mp_graph.forward.indices, ref.forward.indices
        )
        np.testing.assert_array_equal(
            mp_graph.reverse.indices, ref.reverse.indices
        )

    def test_build_graph_work_counters_match_sequential(self):
        """Satellite parity fix: the fanned-out build must count
        ``moves_generated`` (all legal moves) and ``exit_lookups`` exactly
        as :func:`build_database_graph` does."""
        from repro.core.graph import build_database_graph

        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        lower = {n: seq[n] for n in range(6)}
        ref = build_database_graph(game, 6, lower)
        solver = MultiprocessSolver(game, workers=2)
        work = solver._build_graph(6, lower, chunk=1 << 12).work
        assert work.positions_scanned == ref.work.positions_scanned
        assert work.moves_generated == ref.work.moves_generated
        assert work.edges_internal == ref.work.edges_internal
        assert work.exit_lookups == ref.work.exit_lookups


class TestShmFanout:
    def test_shm_fanout_bit_identical_and_counted(self):
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        m = MetricsRegistry()
        vals = MultiprocessSolver(
            game, workers=2, metrics=m, chunk=1 << 11
        ).solve(5)
        for n in range(6):
            np.testing.assert_array_equal(vals[n], seq[n])
        counters = m.snapshot()["counters"]
        # The arena carries the arrays; the pool only ships metadata.
        assert counters["multiproc.shm_segments"] > 0
        assert counters["multiproc.ipc_bytes_saved"] > 0

    def test_threshold_kill_replays_its_slice(self, tmp_path):
        """Two workers split database 6's thresholds into the slices
        [1, 3, 5] and [2, 4, 6]; killing threshold 2 kills the second
        slice's task, whose replay stays bit-identical and checkpoints
        each of its thresholds once."""
        from repro.resilience import RoundStore
        from repro.resilience.faults import FaultPlan

        class CountingStore(RoundStore):
            def __init__(self, directory, size):
                super().__init__(directory, size)
                self.puts = []

            def put(self, t, status):
                self.puts.append(t)
                super().put(t, status)

        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(6)
        lower = {n: seq[n] for n in range(6)}
        plan = FaultPlan.from_specs(
            ["kill-worker:threshold=2"], state_dir=str(tmp_path / "faults")
        )
        store = CountingStore(tmp_path / "rounds", size=game.db_size(6))
        m = MetricsRegistry()
        values = MultiprocessSolver(
            game, workers=2, metrics=m, faults=plan
        ).solve_database(6, lower, round_store=store)
        assert values.dtype == seq[6].dtype
        np.testing.assert_array_equal(values, seq[6])
        assert m.counters.get("resilience.pool_rebuilds", 0) >= 1
        assert sorted(store.puts) == [1, 2, 3, 4, 5, 6]
        assert sorted(store.load()) == [1, 2, 3, 4, 5, 6]

    def test_replayed_kill_stays_bit_identical_with_shm(self, tmp_path):
        """A SIGKILLed worker's partial arena writes are fully overwritten
        by the replayed task: the database cannot tell the difference."""
        from repro.resilience.faults import FaultPlan

        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        for spec in ("kill-worker:chunk=1", "kill-worker:threshold=2"):
            plan = FaultPlan.from_specs(
                [spec], state_dir=str(tmp_path / spec.replace(":", "_"))
            )
            m = MetricsRegistry()
            vals = MultiprocessSolver(
                game, workers=2, metrics=m, chunk=1 << 11, faults=plan
            ).solve(5)
            for n in range(6):
                np.testing.assert_array_equal(vals[n], seq[n])
            counters = m.snapshot()["counters"]
            assert counters.get("resilience.pool_rebuilds", 0) >= 1
            assert counters["multiproc.ipc_bytes_saved"] > 0

    def test_arena_alloc_take_close(self):
        arena = ShmArena()
        a = arena.alloc("a", (8,), np.int16)
        assert (a == 0).all()
        a[:] = np.arange(8)
        with pytest.raises(ValueError):
            arena.alloc("a", (8,), np.int16)
        assert arena.segments == 1 and arena.nbytes == 16
        copied = arena.take("a")
        del a
        arena.close()
        assert copied.tolist() == list(range(8))
        arena.close()  # idempotent
