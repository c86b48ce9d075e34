"""Checkpointed pipeline tests."""

import json

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, PipelineRunner
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.games.kalah import KalahCaptureGame


@pytest.fixture(scope="module")
def reference():
    values, _ = SequentialSolver(AwariCaptureGame()).solve(5)
    return values


class TestBackends:
    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_backend_produces_reference_values(self, backend, reference):
        game = AwariCaptureGame()
        cfg = PipelineConfig(backend=backend)
        values, status = PipelineRunner(game, cfg).run(5)
        for n in range(6):
            np.testing.assert_array_equal(values[n], reference[n])
        assert status.solved == list(range(6))
        assert status.resumed == []

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(backend="quantum")


class TestCheckpointing:
    def test_resume_skips_solved_databases(self, tmp_path, reference):
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path / "ck"))
        runner = PipelineRunner(game, cfg)
        _, first = runner.run(3)
        assert first.solved == [0, 1, 2, 3]
        # Second run: everything comes from disk.
        values, second = PipelineRunner(game, cfg).run(5)
        assert second.resumed == [0, 1, 2, 3]
        assert second.solved == [4, 5]
        for n in range(6):
            np.testing.assert_array_equal(values[n], reference[n])

    def test_manifest_records_backend(self, tmp_path):
        game = AwariCaptureGame()
        cfg = PipelineConfig(backend="parallel", checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["game"] == "awari"
        assert manifest["databases"]["2"]["backend"] == "parallel"

    def test_mixed_backend_resume(self, tmp_path, reference):
        game = AwariCaptureGame()
        PipelineRunner(
            game,
            PipelineConfig(backend="parallel", checkpoint_dir=str(tmp_path)),
        ).run(3)
        values, status = PipelineRunner(
            game,
            PipelineConfig(backend="sequential", checkpoint_dir=str(tmp_path)),
        ).run(5)
        assert status.resumed == [0, 1, 2, 3]
        np.testing.assert_array_equal(values[5], reference[5])

    def test_wrong_game_checkpoint_rejected(self, tmp_path):
        PipelineRunner(
            AwariCaptureGame(), PipelineConfig(checkpoint_dir=str(tmp_path))
        ).run(1)
        with pytest.raises(ValueError, match="not"):
            PipelineRunner(
                KalahCaptureGame(), PipelineConfig(checkpoint_dir=str(tmp_path))
            ).run(1)

    def test_corrupt_checkpoint_rebuilt(self, tmp_path, reference):
        """An overwritten checkpoint fails its CRC and is re-solved."""
        from repro.obs import MetricsRegistry

        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        bad = np.full(game.db_size(2), 99, dtype=np.int16)
        np.save(tmp_path / "db_2.npy", bad)
        metrics = MetricsRegistry()
        values, status = PipelineRunner(game, cfg, metrics=metrics).run(2)
        assert 2 in status.solved
        assert metrics.counters["resilience.checkpoints_rejected"] == 1
        np.testing.assert_array_equal(values[2], reference[2])

    def test_truncated_checkpoint_rebuilt(self, tmp_path, reference):
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        np.save(tmp_path / "db_2.npy", np.zeros(3, dtype=np.int16))
        values, status = PipelineRunner(game, cfg).run(2)
        assert 2 in status.solved
        np.testing.assert_array_equal(values[2], reference[2])

    def test_corrupt_legacy_checkpoint_raises(self, tmp_path):
        """A manifest record without a CRC (pre-resilience layout) keeps
        the strict value-range check: damage raises, never half-loads."""
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for record in manifest["databases"].values():
            record.pop("crc32", None)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        bad = np.full(game.db_size(2), 99, dtype=np.int16)
        np.save(tmp_path / "db_2.npy", bad)
        with pytest.raises(ValueError, match="corrupt"):
            PipelineRunner(game, cfg).run(2)

    def test_truncated_legacy_checkpoint_raises(self, tmp_path):
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for record in manifest["databases"].values():
            record.pop("crc32", None)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        np.save(tmp_path / "db_2.npy", np.zeros(3, dtype=np.int16))
        with pytest.raises(ValueError, match="entries"):
            PipelineRunner(game, cfg).run(2)

    def test_missing_file_resolves(self, tmp_path, reference):
        """A manifest entry whose file vanished is re-solved, not fatal."""
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        (tmp_path / "db_1.npy").unlink()
        values, status = PipelineRunner(game, cfg).run(2)
        assert 1 in status.solved
        np.testing.assert_array_equal(values[1], reference[1])

    def test_oversized_checkpoint_rebuilt(self, tmp_path, reference):
        """Size mismatch in the *larger* direction is caught too."""
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        np.save(
            tmp_path / "db_2.npy",
            np.zeros(game.db_size(2) + 7, dtype=np.int16),
        )
        values, status = PipelineRunner(game, cfg).run(2)
        assert 2 in status.solved
        np.testing.assert_array_equal(values[2], reference[2])


class TestBuildRecords:
    """Per-database build records (backend, wall time, metrics snapshot)
    written into the checkpoint manifest by the observability layer."""

    def test_manifest_records_metrics(self, tmp_path):
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for key in ("0", "1", "2"):
            record = manifest["databases"][key]
            assert record["backend"] == "sequential"
            assert record["positions"] == game.db_size(int(key))
            assert record["wall_seconds"] >= 0
            counters = record["metrics"]["counters"]
            assert counters["sequential.databases"] == 1
            assert counters["sequential.positions_scanned"] == game.db_size(
                int(key)
            )

    def test_metrics_records_survive_resume(self, tmp_path):
        """Resuming after a partial build keeps the old build records
        verbatim and appends new ones alongside them."""
        game = AwariCaptureGame()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg).run(2)
        before = json.loads((tmp_path / "manifest.json").read_text())
        _, status = PipelineRunner(game, cfg).run(4)
        assert status.resumed == [0, 1, 2]
        assert status.solved == [3, 4]
        after = json.loads((tmp_path / "manifest.json").read_text())
        for key in ("0", "1", "2"):
            assert after["databases"][key] == before["databases"][key]
        assert "metrics" in after["databases"]["4"]

    def test_parallel_backend_records_combining(self, tmp_path):
        from repro.core.parallel.driver import ParallelConfig

        game = AwariCaptureGame()
        cfg = PipelineConfig(
            backend="parallel",
            checkpoint_dir=str(tmp_path),
            parallel=ParallelConfig(n_procs=2),
        )
        PipelineRunner(game, cfg).run(2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        counters = manifest["databases"]["2"]["metrics"]["counters"]
        assert "parallel.combining.packets" in counters
        assert "simnet.ethernet.frames" in counters

    def test_run_level_registry_accumulates(self, tmp_path):
        from repro.obs import MetricsRegistry

        game = AwariCaptureGame()
        metrics = MetricsRegistry()
        cfg = PipelineConfig(checkpoint_dir=str(tmp_path))
        PipelineRunner(game, cfg, metrics=metrics).run(1)
        assert metrics.counters["pipeline.databases_solved"] == 2
        assert metrics.counters["sequential.databases"] == 2
        # A resume only touches the resume counter.
        metrics2 = MetricsRegistry()
        PipelineRunner(game, cfg, metrics=metrics2).run(1)
        assert metrics2.counters == {"pipeline.databases_resumed": 2}


class TestMultiprocRun:
    def test_one_pool_per_run_with_per_database_records(
            self, tmp_path, monkeypatch):
        """``repro solve --workers N`` forks once for the whole run, and
        each build record still holds exactly its own database's
        counters: the ones a standalone ``solve_database`` of that
        database counts.  The run's one arena is counted once, in the
        run-level registry, rather than in any record."""
        from repro.core import multiproc
        from repro.core.multiproc import MultiprocessSolver
        from repro.obs import MetricsRegistry

        built = []

        class CountingPool(multiproc.SupervisedPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(multiproc, "SupervisedPool", CountingPool)
        game = AwariCaptureGame()
        run_metrics = MetricsRegistry()
        cfg = PipelineConfig(backend="multiproc", workers=2,
                             checkpoint_dir=str(tmp_path))
        values, status = PipelineRunner(game, cfg, metrics=run_metrics).run(6)
        assert status.solved == list(range(7))
        assert len(built) == 1
        assert run_metrics.counters["multiproc.shm_segments"] == 8
        records = json.loads((tmp_path / "manifest.json").read_text())
        for db_id in range(7):
            alone = MetricsRegistry()
            lower = {d: values[d] for d in range(db_id)}
            np.testing.assert_array_equal(
                MultiprocessSolver(game, workers=2, metrics=alone)
                .solve_database(db_id, lower),
                values[db_id])
            expected = dict(alone.snapshot()["counters"])
            assert expected.pop("multiproc.shm_segments") == 8
            counters = records["databases"][str(db_id)]["metrics"]["counters"]
            assert counters == expected
