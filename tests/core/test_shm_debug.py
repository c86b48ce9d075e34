"""ShmArena claims-ledger (race detector) tests.

A deliberately overlapping claim must raise, a replayed task's
re-claim must not, and debug mode must change nothing observable
about a solve except the one ``multiproc.shm_claims_checked``
counter — including under kill-worker fault injection.
"""

import numpy as np
import pytest

from repro.core.multiproc import MultiprocessSolver
from repro.core.sequential import SequentialSolver
from repro.core.shm import ShmArena, ShmRaceError
from repro.games.awari_db import AwariCaptureGame
from repro.obs import MetricsRegistry


def _arena(slots=4):
    arena = ShmArena(debug=True)
    arena.alloc("values", (100,), np.int16)
    arena.enable_claims(slots)
    return arena


class TestClaimsLedger:
    def test_deliberate_overlap_raises(self):
        with _arena() as arena:
            arena.claim("values", 0, 60, slot=0, owner=1)
            arena.claim("values", 50, 100, slot=1, owner=2)
            with pytest.raises(ShmRaceError, match="overlapping"):
                arena.check_claims()

    def test_disjoint_claims_pass(self):
        with _arena() as arena:
            arena.claim("values", 0, 50, slot=0)
            arena.claim("values", 50, 100, slot=1)
            assert arena.check_claims() == 2

    def test_replayed_task_overwrites_its_own_claim(self):
        # Kill-replay semantics: the replay claims the same region
        # under the same task slot — not an overlap.
        with _arena() as arena:
            arena.claim("values", 0, 60, slot=0)
            arena.claim("values", 0, 60, slot=0)
            arena.claim("values", 60, 100, slot=1)
            assert arena.check_claims() == 2

    def test_out_of_bounds_claim_raises_immediately(self):
        with _arena() as arena:
            with pytest.raises(ShmRaceError, match="outside"):
                arena.claim("values", 90, 101, slot=0)

    def test_unknown_slot_raises(self):
        with _arena(slots=2) as arena:
            with pytest.raises(ShmRaceError, match="slot"):
                arena.claim("values", 0, 10, slot=2)

    def test_empty_claims_cannot_overlap(self):
        with _arena() as arena:
            arena.claim("values", 10, 10, slot=0)
            arena.claim("values", 0, 100, slot=1)
            assert arena.check_claims() == 2

    def test_claims_are_free_when_debug_is_off(self):
        with ShmArena() as arena:
            arena.alloc("values", (10,), np.int16)
            arena.enable_claims(4)  # no-op without debug
            arena.claim("values", 0, 1000, slot=99)  # no ledger, ignored
            assert arena.check_claims() == 0

    def test_enable_claims_twice_raises(self):
        with _arena() as arena:
            with pytest.raises(ValueError, match="already"):
                arena.enable_claims(4)

    def test_ledger_stays_out_of_segment_accounting(self):
        with ShmArena() as plain:
            plain.alloc("values", (100,), np.int16)
            with _arena() as debug:
                assert debug.segments == plain.segments
                assert debug.nbytes == plain.nbytes


class TestSolverDebugParity:
    def test_debug_solve_matches_and_counts_claims(self):
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(4)
        m_dbg, m_plain = MetricsRegistry(), MetricsRegistry()
        dbg = MultiprocessSolver(
            game, workers=2, metrics=m_dbg, chunk=256, shm_debug=True
        ).solve(4)
        plain = MultiprocessSolver(
            game, workers=2, metrics=m_plain, chunk=256, shm_debug=False
        ).solve(4)
        for n in range(5):
            np.testing.assert_array_equal(dbg[n], seq[n])
            np.testing.assert_array_equal(plain[n], seq[n])
        c_dbg = m_dbg.snapshot()["counters"]
        c_plain = m_plain.snapshot()["counters"]
        assert c_dbg["multiproc.shm_claims_checked"] > 0
        assert "multiproc.shm_claims_checked" not in c_plain
        # Apart from that one counter, debug mode is invisible — the
        # ledger never shifts shm_segments or the byte accounting.
        del c_dbg["multiproc.shm_claims_checked"]
        assert c_dbg == c_plain

    def test_more_workers_than_cores_keep_one_arena_disjoint(self):
        """Four workers share one arena across seven databases: every
        fan-out's claims are validated and cleared, and a lost or
        overlapping write would show in the values."""
        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(6)
        m = MetricsRegistry()
        vals = MultiprocessSolver(
            game, workers=4, metrics=m, chunk=512, shm_debug=True
        ).solve(6)
        for n in range(7):
            np.testing.assert_array_equal(vals[n], seq[n])
        counters = m.snapshot()["counters"]
        assert counters["multiproc.shm_segments"] == 8
        assert counters["multiproc.shm_claims_checked"] > 0

    def test_debug_stays_silent_under_kill_replay(self, tmp_path):
        from repro.resilience.faults import FaultPlan

        game = AwariCaptureGame()
        seq, _ = SequentialSolver(game).solve(5)
        plan = FaultPlan.from_specs(
            ["kill-worker:chunk=2"], state_dir=str(tmp_path / "faults")
        )
        m = MetricsRegistry()
        vals = MultiprocessSolver(
            game, workers=2, metrics=m, chunk=1 << 10,
            shm_debug=True, faults=plan,
        ).solve(5)
        for n in range(6):
            np.testing.assert_array_equal(vals[n], seq[n])
        counters = m.snapshot()["counters"]
        assert counters.get("resilience.pool_rebuilds", 0) >= 1
        assert counters["multiproc.shm_claims_checked"] > 0
