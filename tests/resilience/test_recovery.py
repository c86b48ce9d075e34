"""End-to-end crash recovery: killed workers, killed pipelines.

The headline property everywhere: a run with injected faults finishes
and is *bit-identical* to the fault-free sequential solve.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.multiproc import MultiprocessSolver
from repro.core.pipeline import PipelineConfig, PipelineRunner
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.obs import MetricsRegistry
from repro.resilience import RetryPolicy, RoundStore
from repro.resilience.faults import FaultPlan

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)

#: Fast backoff so the suite stays quick.
FAST = RetryPolicy(backoff_seconds=0.001, backoff_max_seconds=0.01)


@pytest.fixture(scope="module")
def reference():
    values, _ = SequentialSolver(AwariCaptureGame()).solve(6)
    return values


class _ChunkKillerGame(AwariCaptureGame):
    """Awari whose scan_chunk SIGKILLs the child on one chosen chunk —
    the satellite's 'test game' formulation: the death happens inside
    game code, not in any injection hook."""

    def __init__(self, kill_db, kill_start, flag_path):
        super().__init__()
        self._kill_db = kill_db
        self._kill_start = kill_start
        self._flag_path = str(flag_path)

    def scan_chunk(self, db_id, start, stop):
        if db_id == self._kill_db and start == self._kill_start:
            try:
                fd = os.open(self._flag_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return super().scan_chunk(db_id, start, stop)


class TestWorkerCrashRecovery:
    def test_scan_chunk_sigkill_is_replayed_bit_identical(
        self, tmp_path, reference
    ):
        game = _ChunkKillerGame(6, 1 << 10, tmp_path / "killed.flag")
        metrics = MetricsRegistry()
        solver = MultiprocessSolver(
            game, workers=2, metrics=metrics, policy=FAST, chunk=1 << 10
        )
        values = solver.solve(6)
        assert (tmp_path / "killed.flag").exists(), "the kill never fired"
        for n in range(7):
            np.testing.assert_array_equal(values[n], reference[n])
        assert metrics.counters["resilience.pool_rebuilds"] >= 1
        assert metrics.counters["resilience.tasks_replayed"] >= 1
        assert metrics.counters["resilience.retries"] >= 1

    def test_injected_chunk_kill_bit_identical(self, tmp_path, reference):
        faults = FaultPlan.from_specs(["kill-worker:chunk=2"],
                                      state_dir=str(tmp_path))
        metrics = MetricsRegistry()
        solver = MultiprocessSolver(
            AwariCaptureGame(), workers=2, metrics=metrics, policy=FAST,
            faults=faults, chunk=1 << 10,
        )
        values = solver.solve(6)
        assert Path(faults.worker_kill.flag_path).exists()
        for n in range(7):
            np.testing.assert_array_equal(values[n], reference[n])
        assert metrics.counters["resilience.pool_rebuilds"] >= 1

    def test_injected_threshold_kill_bit_identical(self, tmp_path, reference):
        faults = FaultPlan.from_specs(["kill-worker:threshold=3"],
                                      state_dir=str(tmp_path))
        metrics = MetricsRegistry()
        solver = MultiprocessSolver(
            AwariCaptureGame(), workers=2, metrics=metrics, policy=FAST,
            faults=faults,
        )
        values = solver.solve(6)
        for n in range(7):
            np.testing.assert_array_equal(values[n], reference[n])
        assert metrics.counters["resilience.pool_rebuilds"] >= 1


class TestRoundSnapshots:
    def test_partial_rounds_are_resumed_bit_identical(
        self, tmp_path, reference
    ):
        """A round store holding thresholds 1..3 of database 6 means only
        4..6 are re-solved, and the values still match exactly."""
        game = AwariCaptureGame()
        lower = {n: reference[n] for n in range(6)}
        store = RoundStore(tmp_path / "rounds", size=game.db_size(6))
        seed = MultiprocessSolver(game, workers=1)
        graph = seed._build_graph(6, lower)
        from repro.core.kernel import solve_kernel, threshold_init

        for t in (1, 2, 3):
            store.put(t, solve_kernel(threshold_init(graph, t)).status)
        metrics = MetricsRegistry()
        solver = MultiprocessSolver(game, workers=2, metrics=metrics,
                                    policy=FAST)
        values = solver.solve_database(6, lower, round_store=store)
        np.testing.assert_array_equal(values, reference[6])
        assert metrics.counters["resilience.rounds_resumed"] == 3

    def test_non_contiguous_rounds_are_resumed_bit_identical(
        self, tmp_path, reference
    ):
        """Thresholds {1, 3, 5} stored: only {2, 4, 6} are solved (as the
        slices [2, 6] and [4]), and the values still match exactly."""
        from repro.core.kernel import solve_kernel, threshold_init

        class CountingStore(RoundStore):
            def __init__(self, directory, size):
                super().__init__(directory, size)
                self.puts = []

            def put(self, t, status):
                self.puts.append(t)
                super().put(t, status)

        game = AwariCaptureGame()
        lower = {n: reference[n] for n in range(6)}
        graph = MultiprocessSolver(game, workers=1)._build_graph(6, lower)
        store = CountingStore(tmp_path / "rounds", size=game.db_size(6))
        for t in (1, 3, 5):
            store.put(t, solve_kernel(threshold_init(graph, t)).status)
        store.puts.clear()
        metrics = MetricsRegistry()
        solver = MultiprocessSolver(game, workers=2, metrics=metrics,
                                    policy=FAST)
        values = solver.solve_database(6, lower, round_store=store)
        np.testing.assert_array_equal(values, reference[6])
        assert sorted(store.puts) == [2, 4, 6]
        assert metrics.counters["resilience.rounds_resumed"] == 3

    def test_pipeline_clears_rounds_after_checkpoint(self, tmp_path, reference):
        cfg = PipelineConfig(
            backend="multiproc", checkpoint_dir=str(tmp_path), workers=2,
            retry=FAST, round_snapshot_min_positions=0,
        )
        values, status = PipelineRunner(AwariCaptureGame(), cfg).run(5)
        for n in range(6):
            np.testing.assert_array_equal(values[n], reference[n])
        assert not list(tmp_path.glob("rounds_db_*")), "rounds not cleared"


class TestPipelineKillAndResume:
    def test_sigkilled_pipeline_resumes_bit_identical(
        self, tmp_path, reference
    ):
        """Run the checkpointing CLI in a subprocess, SIGKILL it as soon
        as a mid-sequence checkpoint lands, then resume to completion."""
        ck = tmp_path / "ck"
        out = tmp_path / "resumed.npz"
        args = [
            sys.executable, "-m", "repro", "solve", "--stones", "6",
            "--checkpoint-dir", str(ck), "--out", str(out),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        victim = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        killed = False
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break  # finished before we could kill it — resume is trivial
            if (ck / "db_3.npy").exists():
                victim.send_signal(signal.SIGKILL)
                victim.wait(timeout=30)
                killed = True
                break
            time.sleep(0.002)
        else:
            victim.kill()
            pytest.fail("pipeline never checkpointed db 3")
        result = subprocess.run(args, env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        from repro.db.store import DatabaseSet

        dbs = DatabaseSet.load(out)
        for n in range(7):
            np.testing.assert_array_equal(dbs[n], reference[n])
        manifest = json.loads((ck / "manifest.json").read_text())
        assert sorted(int(k) for k in manifest["databases"]) == list(range(7))
        if killed:
            assert "resumed" in result.stdout or result.returncode == 0


class TestCheckpointCorruptionInjection:
    def test_injected_corruption_is_detected_and_rebuilt(
        self, tmp_path, reference
    ):
        """corrupt-checkpoint damages db 3 after it lands; the resumed
        run rejects it by CRC and rebuilds, bit-identical."""
        faults = FaultPlan.from_specs(["corrupt-checkpoint:db=3"],
                                      state_dir=str(tmp_path / "faults"))
        ck = str(tmp_path / "ck")
        game = AwariCaptureGame()
        first = MetricsRegistry()
        PipelineRunner(
            game, PipelineConfig(checkpoint_dir=ck, faults=faults),
            metrics=first,
        ).run(5)
        assert first.counters["faults.checkpoints_corrupted"] == 1
        second = MetricsRegistry()
        values, status = PipelineRunner(
            game, PipelineConfig(checkpoint_dir=ck), metrics=second
        ).run(5)
        assert second.counters["resilience.checkpoints_rejected"] == 1
        assert 3 in status.solved  # rebuilt, not trusted
        assert status.resumed == [0, 1, 2, 4, 5]
        for n in range(6):
            np.testing.assert_array_equal(values[n], reference[n])
