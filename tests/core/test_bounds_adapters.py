"""Bounds-iteration solver, WDL adapter and heterogeneous-cluster tests."""

import numpy as np
import pytest

from repro.core.bounds import BoundsSolver, solve_bounds
from repro.core.graph import build_database_graph
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.sequential import SequentialSolver
from repro.core.wdl import solve_wdl
from repro.core.wdl_adapter import WDLAsCapture, solve_wdl_parallel, values_to_status
from repro.games.awari_db import AwariCaptureGame
from repro.games.kalah import KalahCaptureGame
from repro.games.loopy import random_loopy_game
from repro.games.nim import NimGame


class TestBoundsSolver:
    @pytest.mark.parametrize("game_cls", [AwariCaptureGame, KalahCaptureGame])
    def test_matches_threshold_solver(self, game_cls):
        """Two completely different algorithms, identical databases."""
        game = game_cls()
        threshold, _ = SequentialSolver(game).solve(5)
        bounds, sweeps = BoundsSolver(game).solve(5)
        for n in range(6):
            np.testing.assert_array_equal(bounds[n], threshold[n])
        assert all(s >= 0 for s in sweeps.values())

    def test_bounds_bracket_values(self):
        game = AwariCaptureGame()
        values, _ = SequentialSolver(game).solve(4)
        graph = build_database_graph(game, 4, {n: values[n] for n in range(4)})
        result = solve_bounds(graph, 4)
        v = values[4].astype(np.int64)
        assert (result.lo <= v).all()
        assert (v <= result.hi).all()
        # Positive values are forced finitely: lo == v there.
        pos = v > 0
        np.testing.assert_array_equal(result.lo[pos], v[pos])
        neg = v < 0
        np.testing.assert_array_equal(result.hi[neg], v[neg])

    def test_draws_bracket_zero(self):
        game = AwariCaptureGame()
        values, _ = SequentialSolver(game).solve(4)
        graph = build_database_graph(game, 4, {n: values[n] for n in range(4)})
        result = solve_bounds(graph, 4)
        draws = values[4] == 0
        nonterm = graph.out_degree > 0
        sel = draws & nonterm
        assert (result.lo[sel] <= 0).all()
        assert (result.hi[sel] >= 0).all()

    def test_sweep_limit_raises(self):
        game = AwariCaptureGame()
        values, _ = SequentialSolver(game).solve(3)
        graph = build_database_graph(game, 3, {n: values[n] for n in range(3)})
        with pytest.raises(RuntimeError, match="converge"):
            solve_bounds(graph, 3, max_sweeps=1)


class TestWDLAdapter:
    def test_nim_parallel_equals_sequential(self):
        game = NimGame(heaps=2, cap=6)
        seq = solve_wdl(game)
        status, stats = solve_wdl_parallel(
            game,
            ParallelConfig(n_procs=3, predecessor_mode="unmove"),
            max_events=3_000_000,
        )
        np.testing.assert_array_equal(status, seq.status)
        assert stats.makespan_seconds > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_loopy_parallel_equals_sequential(self, seed):
        game = random_loopy_game(150, seed=seed)
        seq = solve_wdl(game)
        status, _ = solve_wdl_parallel(
            game,
            ParallelConfig(n_procs=4, predecessor_mode="unmove"),
            max_events=3_000_000,
        )
        np.testing.assert_array_equal(status, seq.status)

    def test_adapter_protocol(self):
        game = NimGame(heaps=2, cap=3)
        adapter = WDLAsCapture(game)
        assert adapter.db_sequence() == [0]
        assert adapter.db_size() == game.size
        assert adapter.value_bound() == 1
        with pytest.raises(ValueError):
            adapter.exit_db(0, 1)
        scan = adapter.scan_chunk(0, 0, game.size)
        assert (scan.capture == 0).all()
        # The empty position is terminal and lost: exit value -1.
        assert scan.terminal[0]
        assert scan.terminal_value[0] == -1

    def test_values_to_status(self):
        v = np.array([3, 0, -2, 1], dtype=np.int16)
        st = values_to_status(v)
        assert st.tolist() == [1, 0, 2, 1]


class TestHeterogeneousCluster:
    def test_values_unaffected_by_node_speeds(self):
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        speeds = tuple(1.0 + 0.5 * (r % 3) for r in range(6))
        cfg = ParallelConfig(n_procs=6, node_speeds=speeds)
        par, stats = ParallelSolver(game, cfg).solve(5, max_events=5_000_000)
        for n in range(6):
            np.testing.assert_array_equal(par[n], seq[n])

    def test_slow_nodes_stretch_makespan(self):
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        lower = {n: seq[n] for n in range(5)}

        def run(speeds):
            cfg = ParallelConfig(n_procs=4, node_speeds=speeds)
            _, stats = ParallelSolver(game, cfg).solve_database(
                5, lower, max_events=5_000_000
            )
            return stats

        even = run(None)
        skewed = run((1.0, 1.0, 1.0, 2.0))
        assert skewed.makespan_seconds > even.makespan_seconds
        # With one half-speed node the static partition leaves an
        # imbalance the algorithm cannot fix.
        assert skewed.load_imbalance > even.load_imbalance

    def test_bad_speed_vectors_rejected(self):
        from repro.simnet.rts import Actor, SPMDRuntime

        with pytest.raises(ValueError):
            SPMDRuntime([Actor(), Actor()], node_speeds=[1.0])
        with pytest.raises(ValueError):
            SPMDRuntime([Actor()], node_speeds=[0.0])
