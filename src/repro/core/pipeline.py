"""Checkpointed multi-database pipeline.

The paper's computations ran for tens of hours; a production database
builder must survive interruption.  :class:`PipelineRunner` walks a
capture game's database sequence with any solver backend, writing each
finished database (plus a manifest) to a checkpoint directory and
resuming from whatever is already there.

Checkpoints are crash-safe: every array and the manifest land via
atomic tmp-file + rename writes, each database record carries the CRC32
of its ``.npy`` file, and resumes verify it — a checkpoint damaged on
disk is detected and rebuilt instead of half-trusted.  For long
``multiproc`` builds, per-threshold round snapshots
(:class:`~repro.resilience.RoundStore`) let a solve killed mid-database
resume mid-database with bit-identical values.

Backends: ``sequential`` (threshold RA), ``parallel`` (the simulated
cluster), ``multiproc`` (supervised process pool on real cores).  All produce identical
databases; the manifest records which backend built what, so mixed
resumes are fine.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..games.base import CaptureGame
from ..obs import MetricsRegistry, NULL_METRICS
from ..resilience import (
    CheckpointCorruptError,
    RetryPolicy,
    RoundStore,
    atomic_save_array,
    atomic_write_json,
    load_array_verified,
)
from ..resilience.faults import corrupt_file
from .parallel.driver import ParallelConfig, ParallelSolver
from .sequential import SequentialSolver

__all__ = ["PipelineConfig", "PipelineRunner", "PipelineStatus"]

_MANIFEST = "manifest.json"

_BACKENDS = ("sequential", "parallel", "multiproc")


@dataclass(frozen=True)
class PipelineConfig:
    """How to build and where to checkpoint."""

    backend: str = "sequential"  # one of _BACKENDS
    checkpoint_dir: str | None = None
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    verify_on_load: bool = True
    #: Process count for the ``multiproc`` backend (None = cpu_count).
    workers: int | None = None
    #: Scan fan-out granularity for the ``multiproc`` backend.
    scan_chunk: int = 1 << 15
    #: Arena race detector for ``multiproc`` shm fan-outs.
    shm_debug: bool = False
    #: Retry/rebuild bounds for supervised pools (``multiproc``).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Checkpoint individual threshold runs of ``multiproc`` builds for
    #: databases at least this large (mid-database crash resume).
    round_snapshot_min_positions: int = 1 << 15
    #: Optional :class:`~repro.resilience.FaultPlan` (chaos testing).
    faults: object = None

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class PipelineStatus:
    """What one :meth:`PipelineRunner.run` call did."""

    solved: list = field(default_factory=list)
    resumed: list = field(default_factory=list)
    wall_seconds: float = 0.0


class PipelineRunner:
    """Build every database up to a target, checkpointing as it goes."""

    def __init__(
        self,
        game: CaptureGame,
        config: PipelineConfig | None = None,
        metrics=None,
    ):
        self.game = game
        self.config = config or PipelineConfig()
        #: Run-level registry; every database build's metrics are folded
        #: in, whatever backend produced them.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._dir = (
            Path(self.config.checkpoint_dir)
            if self.config.checkpoint_dir
            else None
        )
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)

    # ----------------------------------------------------------- manifest

    def _manifest_path(self) -> Path:
        return self._dir / _MANIFEST

    def _load_manifest(self) -> dict:
        if self._dir is None or not self._manifest_path().exists():
            return {"game": self.game.name, "databases": {}}
        manifest = json.loads(self._manifest_path().read_text())
        if manifest.get("game") != self.game.name:
            raise ValueError(
                f"checkpoint dir holds {manifest.get('game')!r}, "
                f"not {self.game.name!r}"
            )
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        if self._dir is not None:
            atomic_write_json(self._manifest_path(), manifest)

    def _db_path(self, db_id) -> Path:
        return self._dir / f"db_{db_id}.npy"

    def _round_store(self, db_id) -> RoundStore | None:
        """Per-threshold snapshot store for one database build, when the
        configuration asks for intra-database checkpoints."""
        if self._dir is None or self.config.backend != "multiproc":
            return None
        size = self.game.db_size(db_id)
        if size < self.config.round_snapshot_min_positions:
            return None
        return RoundStore(self._dir / f"rounds_db_{db_id}", size)

    # ---------------------------------------------------------------- run

    def run(self, target) -> tuple[dict, PipelineStatus]:
        """Solve (or resume) the pipeline; returns (values, status)."""
        t0 = time.perf_counter()
        status = PipelineStatus()
        manifest = self._load_manifest()
        values: dict = {}
        sequence = list(self.game.db_sequence(target))
        with ExitStack() as scope:
            mp_solver = None
            for db_id in sequence:
                loaded = self._try_load(db_id, manifest)
                if loaded is not None:
                    values[db_id] = loaded
                    status.resumed.append(db_id)
                    self.metrics.inc("pipeline.databases_resumed")
                    continue
                if self.config.backend == "multiproc" and mp_solver is None:
                    # Fork once for the run, at the first database it builds.
                    mp_solver = scope.enter_context(
                        self._multiproc_session(sequence))
                t_db = time.perf_counter()
                round_store = self._round_store(db_id)
                values[db_id], build_metrics = self._solve_one(
                    db_id, values, round_store, mp_solver
                )
                status.solved.append(db_id)
                self.metrics.inc("pipeline.databases_solved")
                record = {
                    "backend": self.config.backend,
                    "positions": int(values[db_id].shape[0]),
                    "wall_seconds": time.perf_counter() - t_db,
                    "metrics": build_metrics,
                }
                self.metrics.merge(build_metrics)
                self._checkpoint(db_id, values[db_id], manifest, record)
                if round_store is not None:
                    # The final values are safely on disk; the
                    # per-threshold snapshots are redundant from here on.
                    round_store.clear()
        status.wall_seconds = time.perf_counter() - t0
        return values, status

    def _try_load(self, db_id, manifest):
        if self._dir is None:
            return None
        key = str(db_id)
        record = manifest["databases"].get(key)
        if record is None:
            return None
        path = self._db_path(db_id)
        if not path.exists():
            return None
        crc = record.get("crc32") if isinstance(record, dict) else None
        if crc is not None:
            try:
                array = load_array_verified(path, crc)
            except CheckpointCorruptError:
                # Damaged on disk after a clean write: drop the record
                # and rebuild rather than trusting (or dying on) it.
                self.metrics.inc("resilience.checkpoints_rejected")
                del manifest["databases"][key]
                self._save_manifest(manifest)
                return None
        else:
            array = np.load(path)
        expected = self.game.db_size(db_id)
        if array.shape[0] != expected:
            raise ValueError(
                f"checkpoint for db {db_id} has {array.shape[0]} entries, "
                f"expected {expected}"
            )
        if self.config.verify_on_load:
            bound = self.game.value_bound(db_id)
            if array.size and np.abs(array).max() > bound:
                raise ValueError(f"checkpoint for db {db_id} is corrupt")
        return array

    @contextmanager
    def _multiproc_session(self, sequence):
        """One :class:`~repro.core.multiproc.MultiprocessSolver`, its
        pool and its arena for every database the run builds.  The
        arena's own counters land in the run-level registry."""
        from .multiproc import MultiprocessSolver

        solver = MultiprocessSolver(
            self.game,
            workers=self.config.workers,
            metrics=self.metrics,
            policy=self.config.retry,
            faults=self.config.faults,
            chunk=self.config.scan_chunk,
            shm_debug=self.config.shm_debug,
        )
        with solver.session(sequence):
            yield solver

    def _solve_one(self, db_id, values, round_store=None, mp_solver=None):
        """Build one database; returns ``(values, metrics snapshot)``.

        Each build gets a fresh registry so its snapshot is exactly this
        database's work; the runner folds it into the run-level registry
        and the checkpoint manifest keeps it as the build record.
        """
        backend = self.config.backend
        build = MetricsRegistry()
        if backend == "sequential":
            solver = SequentialSolver(self.game, metrics=build)
            out, _ = solver.solve_database(db_id, values)
            return out, build.snapshot()
        if backend == "multiproc":
            mp_solver.metrics = build
            out = mp_solver.solve_database(db_id, values, round_store=round_store)
            return out, build.snapshot()
        solver = ParallelSolver(self.game, self.config.parallel, metrics=build)
        out, _ = solver.solve_database(db_id, values)
        return out, build.snapshot()

    def _checkpoint(self, db_id, array, manifest, record: dict) -> None:
        if self._dir is None:
            return
        path = self._db_path(db_id)
        record["crc32"] = atomic_save_array(path, array)
        manifest["databases"][str(db_id)] = record
        self._save_manifest(manifest)
        faults = self.config.faults
        if (
            faults is not None
            and getattr(faults, "checkpoint_corrupt", None) is not None
            and faults.checkpoint_corrupt.should_fire(db_id)
        ):
            # Chaos hook: damage the freshly written checkpoint so the
            # next resume exercises CRC detection and rebuild.
            corrupt_file(path)
            self.metrics.inc("faults.checkpoints_corrupted")
