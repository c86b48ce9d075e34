"""Kernel + WDL solver tests against closed-form and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import CSR, build_database_graph
from repro.core.kernel import (
    RAProblem,
    apply_updates,
    apply_updates_scalar,
    csr_provider,
    seed_thresholds,
    solve_kernel,
    threshold_init,
    unmove_provider,
)
from repro.core.oracle import oracle_wdl
from repro.core.sequential import SequentialSolver
from repro.core.values import LOSS, NO_EXIT, UNKNOWN, WIN
from repro.core.wdl import build_wdl_graph, solve_wdl, wdl_problem
from repro.games.awari_db import AwariCaptureGame
from repro.games.loopy import LoopyGraphGame, random_loopy_game
from repro.games.nim import NimGame


class TestCSR:
    def test_from_edges_and_neighbors(self):
        csr = CSR.from_edges(4, np.array([0, 0, 2, 3]), np.array([1, 2, 3, 0]))
        row, nbr = csr.neighbors_of(np.array([0, 2]))
        assert row.tolist() == [0, 0, 1]
        assert sorted(nbr.tolist()[:2]) == [1, 2]
        assert nbr.tolist()[2] == 3

    def test_parallel_edges_kept(self):
        csr = CSR.from_edges(2, np.array([0, 0]), np.array([1, 1]))
        row, nbr = csr.neighbors_of(np.array([0]))
        assert nbr.tolist() == [1, 1]

    def test_transpose_roundtrip(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 50, 200)
        dst = rng.integers(0, 50, 200)
        fwd = CSR.from_edges(50, src, dst)
        rev = fwd.transpose(50)
        back = rev.transpose(50)
        assert (back.indptr == fwd.indptr).all()
        # Edge multiset must match (order within a row may differ).
        for i in range(50):
            a = np.sort(back.indices[back.indptr[i] : back.indptr[i + 1]])
            b = np.sort(fwd.indices[fwd.indptr[i] : fwd.indptr[i + 1]])
            np.testing.assert_array_equal(a, b)

    def test_empty_graph(self):
        csr = CSR.from_edges(3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        row, nbr = csr.neighbors_of(np.array([0, 1, 2]))
        assert row.size == 0 and nbr.size == 0


class TestNim:
    @pytest.mark.parametrize("heaps,cap", [(1, 5), (2, 4), (3, 3), (2, 7)])
    def test_matches_sprague_grundy(self, heaps, cap):
        game = NimGame(heaps=heaps, cap=cap)
        sol = solve_wdl(game)
        idx = np.arange(game.size)
        oracle = game.oracle_win(idx)
        # Nim has no draws: every position is WIN or LOSS.
        assert sol.draws == 0
        np.testing.assert_array_equal(sol.status == WIN, oracle)

    def test_terminal_is_loss_with_depth_zero(self):
        game = NimGame(heaps=2, cap=3)
        sol = solve_wdl(game)
        zero = int(game.encode(np.array([0, 0])))
        assert sol.status[zero] == LOSS
        assert sol.depth[zero] == 0

    def test_depth_is_optimal_play_length(self):
        # Single heap of k: the mover takes everything, win in 1 ply.
        game = NimGame(heaps=1, cap=6)
        sol = solve_wdl(game)
        for k in range(1, 7):
            assert sol.status[k] == WIN
            assert sol.depth[k] == 1

    def test_encode_decode_roundtrip(self):
        game = NimGame(heaps=3, cap=5)
        idx = np.arange(game.size)
        np.testing.assert_array_equal(game.encode(game.decode(idx)), idx)

    def test_encode_rejects_out_of_range(self):
        game = NimGame(heaps=2, cap=3)
        with pytest.raises(ValueError):
            game.encode(np.array([4, 0]))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            NimGame(heaps=0)


class TestLoopyHandmade:
    def test_two_cycle_is_draw(self):
        # 0 <-> 1, no terminals reachable: both drawn.
        game = LoopyGraphGame([[1], [0], []])
        sol = solve_wdl(game)
        assert sol.status[0] == UNKNOWN
        assert sol.status[1] == UNKNOWN
        assert sol.status[2] == LOSS  # terminal, mover loses

    def test_escape_from_cycle_to_losing_child(self):
        # 0 <-> 1 plus 0 -> 2 (terminal, mover of 2 loses): 0 wins.
        game = LoopyGraphGame([[1, 2], [0], []])
        sol = solve_wdl(game)
        assert sol.status[0] == WIN
        # 1's only move goes to the winning 0: 1 is lost? No - 1 can keep
        # cycling only via 0, and 0 wins ... all of 1's moves reach WIN
        # positions, so 1 is LOSS.
        assert sol.status[1] == LOSS

    def test_cycle_as_refuge(self):
        # 0 <-> 1; 0 -> 2 where 2 is terminal WIN for its mover (bad for 0).
        game = LoopyGraphGame([[1, 2], [0], []], terminal_win=[False, False, True])
        sol = solve_wdl(game)
        # Moving to 2 hands the opponent a win; cycling forever draws.
        assert sol.status[0] == UNKNOWN
        assert sol.status[1] == UNKNOWN
        assert sol.status[2] == WIN

    def test_chain_depths(self):
        # 3 -> 2 -> 1 -> 0 (terminal loss): alternating win/loss up the chain.
        game = LoopyGraphGame([[], [0], [1], [2]])
        sol = solve_wdl(game)
        assert [int(s) for s in sol.status] == [LOSS, WIN, LOSS, WIN]
        assert sol.depth.tolist() == [0, 1, 2, 3]

    def test_self_loop_draw(self):
        game = LoopyGraphGame([[0]])
        sol = solve_wdl(game)
        assert sol.status[0] == UNKNOWN

    def test_bad_successor_rejected(self):
        with pytest.raises(ValueError):
            LoopyGraphGame([[5]])

    def test_terminal_win_shape_checked(self):
        with pytest.raises(ValueError):
            LoopyGraphGame([[], []], terminal_win=[True])


class TestLoopyVsOracle:
    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_match_dense_oracle(self, seed):
        game = random_loopy_game(n=60, avg_degree=2.5, seed=seed)
        sol = solve_wdl(game)
        oracle = oracle_wdl(game)
        np.testing.assert_array_equal(sol.status, oracle)

    @given(st.integers(0, 500), st.floats(1.0, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_degree_sweep_matches(self, seed, deg):
        game = random_loopy_game(n=40, avg_degree=deg, seed=seed)
        np.testing.assert_array_equal(solve_wdl(game).status, oracle_wdl(game))


class TestKernelInvariants:
    def test_statuses_partition_positions(self):
        game = random_loopy_game(n=200, seed=7)
        sol = solve_wdl(game)
        assert sol.wins + sol.losses + sol.draws == game.size

    def test_win_has_loss_child_certificate(self):
        """Every WIN position must have a move to a LOSS position (or be a
        terminal win); every LOSS non-terminal position must have all moves
        to WIN positions — the local Bellman certificate."""
        game = random_loopy_game(n=300, seed=11)
        sol = solve_wdl(game)
        graph = build_wdl_graph(game)
        scan = game.scan_chunk(0, game.size)
        for p in range(game.size):
            moves = scan.succ_index[p][scan.legal[p]]
            if sol.status[p] == WIN and not graph.terminal[p]:
                assert (sol.status[moves] == LOSS).any()
            if sol.status[p] == LOSS and not graph.terminal[p]:
                assert (sol.status[moves] == WIN).all()
            if sol.status[p] == UNKNOWN:
                assert not graph.terminal[p]
                assert (sol.status[moves] == LOSS).sum() == 0
                assert (sol.status[moves] == UNKNOWN).any()

    def test_depth_certificate(self):
        """A WIN at depth d has a LOSS child at depth < d; a LOSS at depth d
        has all children WIN with max child depth == d - 1."""
        game = random_loopy_game(n=250, seed=13)
        sol = solve_wdl(game)
        scan = game.scan_chunk(0, game.size)
        graph = build_wdl_graph(game)
        for p in range(game.size):
            if graph.terminal[p]:
                assert sol.depth[p] == 0
                continue
            moves = scan.succ_index[p][scan.legal[p]]
            if sol.status[p] == WIN:
                lost = moves[sol.status[moves] == LOSS]
                assert (sol.depth[lost] < sol.depth[p]).any()
            elif sol.status[p] == LOSS:
                assert sol.depth[moves].max() == sol.depth[p] - 1


def _naive_rounds(successors, status0, eligible=None):
    """Edge-at-a-time level-synchronous propagation: the reference for
    every statistic the vectorized kernel reports, not only the labels.
    ``eligible[p]`` gates LOSS (default: every position may lose)."""
    n = len(successors)
    if eligible is None:
        eligible = [True] * n
    preds = [[] for _ in range(n)]
    for p, moves in enumerate(successors):
        for c in moves:
            preds[c].append(p)
    status = [int(s) for s in status0]
    counts = [len(moves) for moves in successors]
    depth = [0 if s != UNKNOWN else -1 for s in status]
    frontier = [p for p in range(n) if status[p] != UNKNOWN]
    finalized, notifications, rounds = len(frontier), 0, 0
    round_sizes = [len(frontier)]
    while frontier:
        rounds += 1
        notified = [(c, p) for c in frontier for p in preds[c]]
        notifications += len(notified)
        if not notified:
            break
        new_win = {
            p for c, p in notified if status[c] == LOSS and status[p] == UNKNOWN
        }
        for p in new_win:
            status[p] = int(WIN)
        new_loss = set()
        for c, p in notified:
            if status[c] == WIN:
                counts[p] -= 1
        for c, p in notified:
            if (
                status[c] == WIN
                and counts[p] == 0
                and status[p] == UNKNOWN
                and eligible[p]
            ):
                new_loss.add(p)
        for p in new_loss:
            status[p] = int(LOSS)
        frontier = sorted(new_win | new_loss)
        for p in frontier:
            depth[p] = rounds
        finalized += len(frontier)
        round_sizes.append(len(frontier))
    return status, depth, rounds, finalized, notifications, round_sizes


class TestMultigraphRounds:
    """Parallel edges, self-loops and parents notified several times in
    one round: what the sorted WIN dedupe and the run-length decrement of
    ``solve_kernel`` have to get right, with one row or several."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_dense_multigraphs_match_oracle_and_naive_rounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 14))
        successors = [
            [] if rng.random() < 0.25
            else rng.integers(0, n, size=rng.integers(1, 7)).tolist()
            for _ in range(n)
        ]
        successors[int(rng.integers(0, n))] = []
        game = LoopyGraphGame(successors, terminal_win=rng.random(n) < 0.4)
        graph = build_wdl_graph(game)
        problem = wdl_problem(graph)
        status0 = problem.status.copy()
        result = solve_kernel(problem, record_rounds=True)

        np.testing.assert_array_equal(result.status, oracle_wdl(game))
        status, depth, rounds, finalized, notifications, sizes = _naive_rounds(
            successors, status0
        )
        assert result.status.tolist() == status
        assert result.depth.tolist() == depth
        assert result.rounds == rounds
        assert result.finalized == finalized
        assert result.parent_notifications == notifications
        assert result.round_sizes == sizes

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_multi_row_problems_match_per_row_naive_rounds(self, seed):
        """Threshold rows solved in one call equal each row solved alone:
        rows with an empty seed, and sometimes a node with 256+ moves so
        the counters need ``uint16``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 14))
        successors = [
            [] if rng.random() < 0.25
            else rng.integers(0, n, size=rng.integers(1, 7)).tolist()
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            wide = rng.integers(0, n, size=rng.integers(256, 300))
            successors[int(rng.integers(0, n))] = wide.tolist()
        out_degree = np.array([len(m) for m in successors], dtype=np.int32)
        # Exits in [-2, 2]: rows 3 and 4 seed nothing at all.
        best_exit = rng.integers(-2, 3, size=n).astype(np.int16)
        best_exit[(out_degree > 0) & (rng.random(n) < 0.5)] = NO_EXIT
        rows = int(rng.integers(1, 5))
        status, counts, eligible = seed_thresholds(
            best_exit, out_degree, range(1, rows + 1)
        )
        wide_dtype = np.uint16 if out_degree.max() >= 256 else np.uint8
        assert counts.dtype == wide_dtype
        src = np.repeat(np.arange(n), out_degree)
        dst = np.array([c for m in successors for c in m], dtype=np.int64)
        reverse = CSR.from_edges(n, dst, src)
        result = solve_kernel(
            RAProblem(n, status.copy(), counts, csr_provider(reverse), eligible),
            record_rounds=True,
        )

        refs = [_naive_rounds(successors, status[r], eligible[r]) for r in range(rows)]
        assert result.status.tolist() == [ref[0] for ref in refs]
        assert result.depth.tolist() == [ref[1] for ref in refs]
        assert result.rounds == sum(ref[2] for ref in refs)
        assert result.finalized == sum(ref[3] for ref in refs)
        assert result.parent_notifications == sum(ref[4] for ref in refs)
        sizes = np.zeros(max(len(ref[5]) for ref in refs), dtype=np.int64)
        for ref in refs:
            sizes[: len(ref[5])] += ref[5]
        assert result.round_sizes == sizes.tolist()

    def test_depth_only_on_request(self):
        game = LoopyGraphGame([[], [0]])
        result = solve_kernel(wdl_problem(build_wdl_graph(game)))
        assert result.depth is None
        assert result.status.tolist() == [LOSS, WIN]

    def test_repeated_parent_within_one_round(self):
        # 0 is lost; 1 has three parallel moves into it and one into the
        # won terminal 2; 3 has two parallel moves into 2 and a self-loop.
        game = LoopyGraphGame(
            [[], [0, 0, 0, 2], [], [2, 2, 3]], terminal_win=[False, False, True, False]
        )
        result = solve_kernel(wdl_problem(build_wdl_graph(game)), record_rounds=True)
        assert result.status.tolist() == [LOSS, WIN, WIN, UNKNOWN]
        assert result.depth.tolist() == [0, 1, 0, -1]
        assert result.parent_notifications == 6 and result.round_sizes == [2, 1]


class TestScalarApply:
    """The worker's per-step ``apply_updates_scalar`` on memoryviews and
    the kernel's vectorised ``apply_updates`` on arrays are one rule."""

    @given(
        data=st.data(),
        size=st.integers(1, 12),
        dtype=st.sampled_from([np.uint8, np.uint16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_vectorised_apply(self, data, size, dtype):
        """Duplicate parents, WIN and DEC on one slot, parents already
        final and batches that overdraw a counter (which wraps in the
        counts dtype) leave identical state and identical outputs."""
        def column(elements):
            return data.draw(st.lists(elements, min_size=size, max_size=size))

        top = int(np.iinfo(dtype).max)
        status = np.array(column(st.sampled_from([UNKNOWN, UNKNOWN, WIN, LOSS])),
                          dtype=np.uint8)
        counts = np.array(
            column(st.one_of(st.integers(0, 3), st.integers(top - 1, top))), dtype=dtype
        )
        eligible = np.array(column(st.booleans()), dtype=bool)
        # Up to 2 WIN and 4 DEC updates per slot, in any order: duplicate
        # parents, WIN + DEC on one slot and overdrawn counters are common.
        n_win, n_dec = column(st.integers(0, 2)), column(st.integers(0, 4))
        updates = data.draw(st.permutations(
            [(i, True) for i in range(size) for _ in range(n_win[i])]
            + [(i, False) for i in range(size) for _ in range(n_dec[i])]
        ))
        flat = [i for i, _ in updates]
        win = [w for _, w in updates]
        # Packets decode their kinds as 0/1 ints, local updates as bools.
        scalar_win = win if data.draw(st.booleans()) else [int(w) for w in win]

        vec = [a.copy() for a in (status, counts, eligible)]
        vec_win, vec_loss = apply_updates(
            *vec, np.array(flat, dtype=np.int64), np.array(win, dtype=bool)
        )
        scal = [a.copy() for a in (status, counts, eligible)]
        new_win, new_loss = apply_updates_scalar(
            *(memoryview(a) for a in scal), flat, scalar_win
        )

        assert new_win == vec_win.tolist()
        assert new_loss == vec_loss.tolist()
        assert all(type(i) is int for i in new_win + new_loss)
        for got, want in zip(scal, vec):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestUnmoveProviderOnAwari:
    def test_unmove_provider_equals_csr_provider(self):
        game = AwariCaptureGame()
        values, _ = SequentialSolver(game).solve(6)
        for n in range(1, 7):
            graph = build_database_graph(game, n, values)
            for t in range(1, n + 1):
                by_csr = solve_kernel(threshold_init(graph, t), record_rounds=True)
                problem = threshold_init(graph, t)
                problem.predecessors = unmove_provider(game, n)
                by_unmove = solve_kernel(problem, record_rounds=True)
                np.testing.assert_array_equal(by_unmove.status, by_csr.status)
                np.testing.assert_array_equal(by_unmove.depth, by_csr.depth)
                assert by_unmove.rounds == by_csr.rounds
                assert by_unmove.finalized == by_csr.finalized
                assert by_unmove.parent_notifications == by_csr.parent_notifications
                assert by_unmove.round_sizes == by_csr.round_sizes
