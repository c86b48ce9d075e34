"""Multiprocessing backend tests (correctness and structure only — CI
runners have few cores shared with other jobs, so wall-clock speedups
are not asserted; bench/ measures them)."""

import os

import numpy as np
import pytest

from repro.core import multiproc
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
        solver = MultiprocessSolver(game, workers=2, chunk=1 << 12)
        mp_graph = solver._build_graph(6, lower)
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
        solver = MultiprocessSolver(game, workers=2, chunk=1 << 12)
        work = solver._build_graph(6, lower).work
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

    def test_large_alloc_reads_back_as_zeros(self):
        # alloc writes nothing: a fresh segment is zero-filled by the OS.
        with ShmArena() as arena:
            block = arena.alloc("big", (64 << 20,), np.uint8)
            assert not block.any()
            del block


class CountingPool(multiproc.SupervisedPool):
    """``SupervisedPool`` that counts its instances and logs, per
    ``map``, the database its tasks belong to and the pool's rebuild
    count once the map is done."""

    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).built += 1
        self.log = []
        type(self).last = self

    def map(self, tasks, on_result=None):
        results = super().map(tasks, on_result=on_result)
        self.log.append((tasks[0][1][0], self.rebuilds))
        return results


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr(CountingPool, "built", 0)
    monkeypatch.setattr(multiproc, "SupervisedPool", CountingPool)
    return CountingPool


def _shm_names():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


class TestForkOnce:
    """One pool and one arena serve every database of a solve."""

    @pytest.fixture(scope="class")
    def reference(self):
        values, _ = SequentialSolver(AwariCaptureGame()).solve(7)
        return values

    def test_one_pool_per_solve(self, counting_pool, reference):
        m = MetricsRegistry()
        values = MultiprocessSolver(
            AwariCaptureGame(), workers=2, metrics=m).solve(7)
        for n in range(8):
            np.testing.assert_array_equal(values[n], reference[n])
        assert counting_pool.built == 1
        assert [db for db, _ in counting_pool.last.log] == [
            0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]
        # One arena: values, best_exit, out_degree, src, dst,
        # rev_indptr, rev_indices, status.
        assert m.counters["multiproc.shm_segments"] == 8

    def test_rebuilt_pool_carries_the_later_databases(
            self, counting_pool, reference, tmp_path):
        from repro.resilience.faults import FaultPlan

        plan = FaultPlan.from_specs(["kill-worker:threshold=3"],
                                    state_dir=str(tmp_path))
        m = MetricsRegistry()
        values = MultiprocessSolver(
            AwariCaptureGame(), workers=2, metrics=m, faults=plan).solve(7)
        for n in range(8):
            np.testing.assert_array_equal(values[n], reference[n])
        assert counting_pool.built == 1
        assert m.counters["resilience.pool_rebuilds"] == 1
        rebuilt = {db: n for db, n in counting_pool.last.log}
        assert [rebuilt[db] for db in range(8)] == [0, 0, 0, 1, 1, 1, 1, 1]

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm to inspect")
    def test_no_segment_outlives_a_solve(self, tmp_path):
        from repro.resilience import PoolFailedError, RetryPolicy
        from repro.resilience.faults import FaultPlan

        game = AwariCaptureGame()
        before = _shm_names()
        MultiprocessSolver(game, workers=2).solve(5)
        assert _shm_names() - before == set()
        plan = FaultPlan.from_specs(["kill-worker:chunk=1"],
                                    state_dir=str(tmp_path / "replay"))
        MultiprocessSolver(game, workers=2, faults=plan).solve(5)
        assert _shm_names() - before == set()
        plan = FaultPlan.from_specs(["kill-worker:threshold=3"],
                                    state_dir=str(tmp_path / "fail"))
        policy = RetryPolicy(max_pool_rebuilds=0, backoff_seconds=0.001)
        with pytest.raises(PoolFailedError):
            MultiprocessSolver(game, workers=2, faults=plan,
                               policy=policy).solve(5)
        assert _shm_names() - before == set()
