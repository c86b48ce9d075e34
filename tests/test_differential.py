"""Cross-backend differential suite.

Every solver backend in the repo claims to compute the *same* databases:
the threshold solver (both predecessor modes), the bounds-iteration
solver, the simulated cluster (any processor count, combining on or
off), and the real-multiprocessing backend.  This suite pins that claim
down as a bit-identity over three games — awari (the paper's game),
kalah (a different capture rule set), and a seeded synthetic game with
no helpful structure at all — so every future optimisation PR has a
single suite that proves it changed *when* things are computed, never
*what*.
"""

import numpy as np
import pytest

from repro.core.bounds import BoundsSolver
from repro.core.multiproc import MultiprocessSolver
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.games.kalah import KalahCaptureGame
from repro.games.synthetic import SyntheticCaptureGame

#: (name, game factory, target database id) — awari capped at 5 stones.
GAMES = [
    ("awari", AwariCaptureGame, 5),
    ("kalah", KalahCaptureGame, 4),
    ("synthetic", lambda: SyntheticCaptureGame(levels=5, max_size=50, seed=7), 4),
]
GAME_IDS = [name for name, _, _ in GAMES]


def _parallel(n_procs, combining_capacity):
    def solve(game, target):
        config = ParallelConfig(n_procs=n_procs, combining_capacity=combining_capacity)
        values, _ = ParallelSolver(game, config).solve(target)
        return values

    return solve


BACKENDS = {
    "sequential-unmove": lambda game, target: SequentialSolver(
        game, predecessor_mode="unmove"
    ).solve(target)[0],
    "bounds": lambda game, target: BoundsSolver(game).solve(target)[0],
    "parallel-p1": _parallel(1, 256),
    "parallel-p4-combining": _parallel(4, 256),
    "parallel-p4-no-combining": _parallel(4, 1),
    "multiproc-p4": lambda game, target: MultiprocessSolver(
        game, workers=4
    ).solve(target),
}

#: The deterministic work counters both capture-game backends must agree
#: on, name for name (``sequential.X`` == ``multiproc.X``).
WORK_COUNTERS = (
    "positions_scanned",
    "moves_generated",
    "edges_internal",
    "exit_lookups",
    "thresholds",
    "propagation_rounds",
    "parent_notifications",
)


@pytest.fixture(scope="module", params=GAMES, ids=GAME_IDS)
def workload(request):
    """(game, target, reference values) — the csr sequential solver is
    the reference every other backend must reproduce bit-for-bit."""
    name, factory, target = request.param
    game = factory()
    reference, _ = SequentialSolver(game, predecessor_mode="csr").solve(target)
    return game, target, reference


@pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
def test_backend_bit_identical(workload, backend):
    game, target, reference = workload
    values = BACKENDS[backend](game, target)
    assert sorted(values) == sorted(reference)
    for db_id in reference:
        got, want = values[db_id], reference[db_id]
        assert got.dtype == want.dtype, f"db {db_id}: dtype differs"
        np.testing.assert_array_equal(
            got, want, err_msg=f"{backend} diverges on db {db_id}"
        )


def test_work_counters_match_sequential(workload):
    """Sequential and multiprocess backends must report identical
    deterministic work counters — the calibrated cost model consumes
    them, so a silent divergence (e.g. ``moves_generated`` counting only
    internal edges, or ``exit_lookups`` never counted) would skew every
    cross-backend comparison built on ``total_ops``."""
    from repro.core.sequential import SequentialSolver as Seq
    from repro.obs import MetricsRegistry

    game, target, _ = workload
    m_seq, m_mp = MetricsRegistry(), MetricsRegistry()
    Seq(game, metrics=m_seq).solve(target)
    MultiprocessSolver(
        game, workers=2, chunk=1 << 11, metrics=m_mp
    ).solve(target)
    seq = m_seq.snapshot()["counters"]
    mp_ = m_mp.snapshot()["counters"]
    for name in WORK_COUNTERS:
        assert seq[f"sequential.{name}"] == mp_[f"multiproc.{name}"], (
            f"{name} diverges: sequential={seq[f'sequential.{name}']} "
            f"multiproc={mp_[f'multiproc.{name}']}"
        )
    assert seq["sequential.databases"] == mp_["multiproc.databases"]


def test_reference_is_nontrivial(workload):
    """Guard against a vacuous pass: the top database must contain all
    three outcomes (win/draw/loss) somewhere in the tested range."""
    _, _, reference = workload
    merged = np.concatenate([reference[db_id] for db_id in reference])
    assert (merged > 0).any()
    assert (merged < 0).any()
    assert (merged == 0).any()
