"""Direct unit tests for graph construction and the kernel on hand-built
miniature problems (no game engine involved)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import CSR, build_database_graph, scan_chunk_to_parts
from repro.core.kernel import RAProblem, csr_provider, solve_kernel, threshold_init
from repro.core.values import LOSS, NO_EXIT, UNKNOWN, WIN
from repro.games.awari_db import AwariCaptureGame
from repro.simnet.costs import CostModel, DEFAULT_COSTS


def tiny_problem(edges, n, win0=(), loss0=(), loss_eligible=None):
    """Build an RAProblem over an explicit internal edge list."""
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    fwd = CSR.from_edges(n, src, dst)
    rev = CSR.from_edges(n, dst, src)
    status = np.zeros(n, dtype=np.uint8)
    status[list(win0)] = WIN
    status[list(loss0)] = LOSS
    counts = np.bincount(src, minlength=n).astype(np.int32)
    if loss_eligible is None:
        loss_eligible = np.ones(n, dtype=bool)
    return RAProblem(
        size=n,
        status=status,
        counts=counts,
        predecessors=csr_provider(rev),
        loss_eligible=np.asarray(loss_eligible),
    )


class TestKernelMicro:
    def test_chain_alternates(self):
        # 2 -> 1 -> 0, position 0 starts LOSS.
        problem = tiny_problem([(1, 0), (2, 1)], 3, loss0=[0])
        res = solve_kernel(problem, record_rounds=True)
        assert res.status.tolist() == [LOSS, WIN, LOSS]
        assert res.depth.tolist() == [0, 1, 2]

    def test_win_priority_over_counter(self):
        # 2 has moves to both a LOSS (0) and a WIN (1): must be WIN.
        problem = tiny_problem([(2, 0), (2, 1)], 3, win0=[1], loss0=[0])
        res = solve_kernel(problem)
        assert res.status[2] == WIN

    def test_counter_requires_all_children(self):
        # 2 -> {0, 1}; only 0 is WIN: 2 stays unknown (1 unresolved).
        problem = tiny_problem([(2, 0), (2, 1)], 3, win0=[0])
        res = solve_kernel(problem)
        assert res.status[2] == UNKNOWN

    def test_loss_eligibility_gates_losses(self):
        # Same shape, both children WIN, but 2 has a good exit: not LOSS.
        eligible = np.array([True, True, False])
        problem = tiny_problem(
            [(2, 0), (2, 1)], 3, win0=[0, 1], loss_eligible=eligible
        )
        res = solve_kernel(problem)
        assert res.status[2] == UNKNOWN

    def test_parallel_edges_counted_twice(self):
        # 1 has TWO moves to 0 (parallel edges); 0 wins -> both must drain.
        problem = tiny_problem([(1, 0), (1, 0)], 2, win0=[0])
        res = solve_kernel(problem)
        assert res.status[1] == LOSS

    def test_same_round_decrements_through_parallel_edges(self):
        # 2 holds four internal moves: two parallel edges into each of 0
        # and 1, and both children are WIN from round zero.  All four
        # decrements arrive at 2 in the SAME propagation round and every
        # one must count — an implementation that deduplicates (parent,
        # child) pairs or assigns instead of accumulating would leave the
        # counter at 2 and misreport 2 as a draw.
        edges = [(2, 0), (2, 0), (2, 1), (2, 1)]
        problem = tiny_problem(edges, 3, win0=[0, 1])
        res = solve_kernel(problem, record_rounds=True)
        assert res.status[2] == LOSS
        assert res.depth[2] == 1  # finalized by the first round's batch

    def test_parallel_edge_decrement_shortfall_is_not_a_loss(self):
        # Same shape, but only child 0 ever wins: the two parallel edges
        # into 0 drain 2 of 3 escape options, and 2 must stay undecided.
        problem = tiny_problem([(2, 0), (2, 0), (2, 1)], 3, win0=[0])
        res = solve_kernel(problem)
        assert res.status[2] == UNKNOWN

    def test_cycle_stays_drawn(self):
        problem = tiny_problem([(0, 1), (1, 0)], 2)
        res = solve_kernel(problem)
        assert (res.status == UNKNOWN).all()
        assert res.rounds == 0

    def test_notification_count(self):
        problem = tiny_problem([(1, 0), (2, 1)], 3, loss0=[0])
        res = solve_kernel(problem)
        # 0 notifies 1; 1 notifies 2; 2 notifies nobody.
        assert res.parent_notifications == 2

    def test_round_sizes_recorded(self):
        problem = tiny_problem([(1, 0), (2, 1)], 3, loss0=[0])
        res = solve_kernel(problem, record_rounds=True)
        assert res.round_sizes == [1, 1, 1]


class TestThresholdInit:
    @pytest.fixture(scope="class")
    def graph(self):
        game = AwariCaptureGame()
        from repro.core.sequential import SequentialSolver

        values, _ = SequentialSolver(game).solve(3)
        return build_database_graph(game, 4, {n: values[n] for n in range(4)})

    def test_rejects_nonpositive_threshold(self, graph):
        with pytest.raises(ValueError):
            threshold_init(graph, 0)

    def test_win_seeds_have_sufficient_exits(self, graph):
        problem = threshold_init(graph, 2)
        seeded = problem.status == WIN
        assert (graph.best_exit[seeded] >= 2).all()

    def test_loss_seeds_are_leaves_with_bad_exits(self, graph):
        problem = threshold_init(graph, 2)
        seeded = problem.status == LOSS
        assert (graph.out_degree[seeded] == 0).all()
        assert (graph.best_exit[seeded] <= -2).all()

    def test_higher_threshold_seeds_fewer_wins(self, graph):
        w1 = (threshold_init(graph, 1).status == WIN).sum()
        w4 = (threshold_init(graph, 4).status == WIN).sum()
        assert w4 < w1


class TestTransposeValidation:
    def test_rejects_n_smaller_than_source_rows(self):
        csr = CSR.from_edges(4, np.array([0, 3]), np.array([1, 2]))
        with pytest.raises(ValueError, match="source rows"):
            csr.transpose(3)

    def test_rejects_destinations_out_of_range(self):
        csr = CSR.from_edges(3, np.array([0, 1]), np.array([1, 7]))
        with pytest.raises(ValueError, match="out of range"):
            csr.transpose(3)

    def test_accepts_wider_node_range(self):
        # Transposing onto MORE nodes than the forward graph is legal
        # (extra nodes simply have no predecessors).
        csr = CSR.from_edges(2, np.array([0, 1]), np.array([1, 0]))
        rev = csr.transpose(5)
        assert rev.indptr.shape[0] == 6
        assert rev.n_edges == 2


def argsort_csr(n, src, dst):
    """The reference CSR construction: bincount offsets and a stable
    argsort of the sources."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


@st.composite
def edge_lists(draw):
    """``(n, src, dst)`` with parallel edges, self-loops and isolated
    nodes all likely at these sizes; sources sorted half the time."""
    n = draw(st.integers(1, 40))
    n_edges = draw(st.integers(0, 120))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=n_edges, max_size=n_edges))
    dst = draw(st.lists(node, min_size=n_edges, max_size=n_edges))
    if draw(st.booleans()):
        src.sort()
    return n, src, dst


class TestFromEdges:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    @example((1, [], []))
    @example((5, [], []))
    @example((1, [0, 0, 0], [0, 0, 0]))
    @example((4, [3, 1, 3, 1, 0], [2, 2, 1, 1, 3]))
    def test_matches_stable_argsort(self, case):
        n, src, dst = case
        csr = CSR.from_edges(n, np.array(src, dtype=np.int64),
                             np.array(dst, dtype=np.int64))
        indptr, indices = argsort_csr(n, src, dst)
        assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int64
        np.testing.assert_array_equal(csr.indptr, indptr)
        np.testing.assert_array_equal(csr.indices, indices)

    def test_sorted_sources_do_not_alias_the_input(self):
        dst = np.array([2, 0, 1], dtype=np.int64)
        csr = CSR.from_edges(3, np.array([0, 1, 1]), dst)
        dst[0] = 9
        assert csr.indices.tolist() == [2, 0, 1]

    def test_key_overflow_raises_before_allocating(self):
        # bincount over 2**62 nodes would need 2**65 bytes: the check
        # has to come first for this to be a ValueError at all.
        with pytest.raises(ValueError, match="overflows"):
            CSR.from_edges(2 ** 62, np.array([1, 0]), np.array([0, 1]))


def _edge_list(game, db_id, lower, chunk=1 << 15):
    size = game.db_size(db_id)
    parts = [scan_chunk_to_parts(game, db_id, lower, start,
                                 min(start + chunk, size))
             for start in range(0, size, chunk)]
    return (np.concatenate([p.src for p in parts]),
            np.concatenate([p.dst for p in parts]))


class TestCsrBitIdentity:
    """``build_database_graph`` gives the forward and reverse CSRs of the
    stable-argsort construction, array for array."""

    @pytest.mark.parametrize("game_name, target", [
        ("awari", 7), ("kalah", 5), ("synthetic", 3),
    ])
    def test_graph_csrs_equal_argsort_reference(self, game_name, target):
        from repro.core.sequential import SequentialSolver
        from repro.games.kalah import KalahCaptureGame
        from repro.games.synthetic import SyntheticCaptureGame

        game = {
            "awari": AwariCaptureGame,
            "kalah": KalahCaptureGame,
            "synthetic": lambda: SyntheticCaptureGame(
                levels=4, max_size=60, seed=5),
        }[game_name]()
        values, _ = SequentialSolver(game).solve(target)
        for db_id in game.db_sequence(target):
            graph = build_database_graph(game, db_id, values)
            src, dst = _edge_list(game, db_id, values)
            for csr, (a, b) in ((graph.forward, (src, dst)),
                                (graph.reverse, (dst, src))):
                indptr, indices = argsort_csr(graph.size, a, b)
                np.testing.assert_array_equal(csr.indptr, indptr)
                np.testing.assert_array_equal(csr.indices, indices)


class TestScanChunkToParts:
    """The shared chunk-scan helper is the single source of truth for
    terminal/capture/internal handling (used by the sequential builder
    and the multiprocess scan fan-out)."""

    @pytest.fixture(scope="class")
    def setup(self):
        game = AwariCaptureGame()
        from repro.core.sequential import SequentialSolver

        values, _ = SequentialSolver(game).solve(3)
        return game, {n: values[n] for n in range(4)}

    def test_chunked_parts_reassemble_the_whole_scan(self, setup):
        game, lower = setup
        size = game.db_size(4)
        whole = scan_chunk_to_parts(game, 4, lower, 0, size)
        pieces = [
            scan_chunk_to_parts(game, 4, lower, s, min(s + 97, size))
            for s in range(0, size, 97)
        ]
        np.testing.assert_array_equal(
            np.concatenate([p.best_exit for p in pieces]), whole.best_exit
        )
        np.testing.assert_array_equal(
            np.concatenate([p.out_degree for p in pieces]), whole.out_degree
        )
        # Global edge indices concatenate in scan order: bit-identical
        # edge list regardless of chunk boundaries.
        np.testing.assert_array_equal(
            np.concatenate([p.src for p in pieces]), whole.src
        )
        np.testing.assert_array_equal(
            np.concatenate([p.dst for p in pieces]), whole.dst
        )
        assert sum(p.moves_generated for p in pieces) == whole.moves_generated
        assert sum(p.exit_lookups for p in pieces) == whole.exit_lookups

    def test_parts_agree_with_built_graph(self, setup):
        game, lower = setup
        size = game.db_size(4)
        graph = build_database_graph(game, 4, lower)
        parts = scan_chunk_to_parts(game, 4, lower, 0, size)
        np.testing.assert_array_equal(parts.best_exit, graph.best_exit)
        np.testing.assert_array_equal(parts.out_degree, graph.out_degree)
        assert parts.n_edges == graph.forward.n_edges
        assert parts.moves_generated == graph.work.moves_generated
        assert parts.exit_lookups == graph.work.exit_lookups


class TestGraphBuild:
    def test_work_counters(self):
        game = AwariCaptureGame()
        from repro.core.sequential import SequentialSolver

        values, _ = SequentialSolver(game).solve(2)
        graph = build_database_graph(game, 3, {n: values[n] for n in range(3)})
        assert graph.work.positions_scanned == game.db_size(3)
        assert graph.work.moves_generated > 0
        assert graph.work.edges_internal == graph.forward.n_edges
        assert graph.memory_bytes() > 0

    def test_no_exit_sentinel_only_on_positions_without_exits(self):
        game = AwariCaptureGame()
        from repro.core.sequential import SequentialSolver

        values, _ = SequentialSolver(game).solve(3)
        graph = build_database_graph(game, 4, {n: values[n] for n in range(4)})
        scan = game.scan_chunk(4, 0, game.db_size(4))
        has_capture = (scan.legal & (scan.capture > 0)).any(axis=1)
        no_exit = graph.best_exit == np.int16(NO_EXIT)
        assert not (no_exit & (has_capture | scan.terminal)).any()

    def test_out_degree_matches_internal_moves(self):
        game = AwariCaptureGame()
        from repro.core.sequential import SequentialSolver

        values, _ = SequentialSolver(game).solve(2)
        graph = build_database_graph(game, 3, {n: values[n] for n in range(3)})
        scan = game.scan_chunk(3, 0, game.db_size(3))
        internal = (scan.legal & (scan.capture == 0)).sum(axis=1)
        np.testing.assert_array_equal(graph.out_degree, internal)


class TestCostModel:
    def test_scaled_cpu_only(self):
        scaled = DEFAULT_COSTS.scaled(cpu_factor=2.0)
        assert scaled.scan_position == 2 * DEFAULT_COSTS.scan_position
        assert scaled.msg_overhead_send == DEFAULT_COSTS.msg_overhead_send

    def test_scaled_msg_only(self):
        scaled = DEFAULT_COSTS.scaled(msg_factor=3.0)
        assert scaled.msg_overhead_recv == 3 * DEFAULT_COSTS.msg_overhead_recv
        assert scaled.update_generate == DEFAULT_COSTS.update_generate

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.scan_position = 1.0

    def test_custom_model(self):
        m = CostModel(scan_position=1.0)
        assert m.scan_position == 1.0
