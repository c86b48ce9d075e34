"""The instrumented hot paths report honestly: registry contents must
match the subsystems' own pre-existing measurements exactly, and two
identical runs must produce identical metric values."""

import numpy as np
import pytest

from repro.core.multiproc import MultiprocessSolver
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.obs import MetricsRegistry

STONES = 3
PROCS = 4


def _parallel_run(**overrides):
    metrics = MetricsRegistry()
    config = ParallelConfig(n_procs=PROCS, **overrides)
    solver = ParallelSolver(AwariCaptureGame(), config, metrics=metrics)
    values, stats = solver.solve(STONES)
    return metrics, values, stats


class TestSequentialInstrumentation:
    def test_counters_match_solve_report(self):
        metrics = MetricsRegistry()
        _, report = SequentialSolver(
            AwariCaptureGame(), metrics=metrics
        ).solve(4)
        c = metrics.counters
        assert c["sequential.databases"] == len(report.databases)
        assert c["sequential.positions_scanned"] == sum(
            r.work.positions_scanned for r in report.databases
        )
        assert c["sequential.parent_notifications"] == sum(
            r.parent_notifications for r in report.databases
        )
        assert c["sequential.thresholds"] == sum(
            r.thresholds for r in report.databases
        )
        assert metrics.timers["sequential.solve_database"].count == len(
            report.databases
        )

    def test_null_registry_by_default(self):
        solver = SequentialSolver(AwariCaptureGame())
        assert solver.metrics.enabled is False


class TestParallelInstrumentation:
    def test_combining_counters_match_combining_stats_exactly(self):
        metrics, _, stats = _parallel_run(combining_capacity=256)
        c = metrics.counters
        assert c["parallel.combining.updates"] == sum(
            s.updates_sent for s in stats
        )
        assert c["parallel.combining.packets"] == sum(
            s.packets_sent for s in stats
        )
        assert c["parallel.packets_sent"] == sum(s.packets_sent for s in stats)
        assert c["parallel.updates_sent"] == sum(s.updates_sent for s in stats)
        assert c["parallel.updates_local"] == sum(
            s.updates_local for s in stats
        )
        assert c["parallel.bytes_sent"] == sum(s.bytes_sent for s in stats)
        assert c["parallel.control_messages"] == sum(
            s.control_messages for s in stats
        )
        assert c["parallel.token_rounds"] == sum(s.token_rounds for s in stats)

    def test_no_combining_degenerates_to_one_update_per_packet(self):
        metrics, _, _ = _parallel_run(combining_capacity=1)
        c = metrics.counters
        assert c["parallel.combining.packets"] == c["parallel.combining.updates"]

    def test_simnet_events_feed_the_same_registry(self):
        metrics, _, stats = _parallel_run()
        c = metrics.counters
        # Per-tag traffic from the runtime, on the same surface.
        assert c["simnet.sent.UPDATE"] == sum(s.packets_sent for s in stats)
        assert c["simnet.sent.TOKEN"] > 0
        assert c["simnet.sent.PHASE"] > 0
        assert c["simnet.bytes_sent"] == c["parallel.bytes_sent"]
        assert c["simnet.ethernet.frames"] == sum(s.ethernet_frames for s in stats)
        # Simulated makespans are histogram observations, one per database.
        assert metrics.histograms["parallel.makespan_seconds"].count == len(stats)

    def test_two_runs_are_bit_identical(self):
        a, values_a, _ = _parallel_run()
        b, values_b, _ = _parallel_run()
        assert a.snapshot() == b.snapshot()
        for db_id in values_a:
            np.testing.assert_array_equal(values_a[db_id], values_b[db_id])

    def test_disabled_metrics_change_nothing(self):
        _, values_on, stats_on = _parallel_run()
        config = ParallelConfig(n_procs=PROCS)
        values_off, stats_off = ParallelSolver(
            AwariCaptureGame(), config
        ).solve(STONES)
        for db_id in values_on:
            np.testing.assert_array_equal(values_on[db_id], values_off[db_id])
        assert [s.packets_sent for s in stats_on] == [
            s.packets_sent for s in stats_off
        ]
        assert [s.makespan_seconds for s in stats_on] == [
            s.makespan_seconds for s in stats_off
        ]


class TestMultiprocInstrumentation:
    def test_pool_timings_aggregate(self):
        metrics = MetricsRegistry()
        solver = MultiprocessSolver(AwariCaptureGame(), workers=2, metrics=metrics)
        values = solver.solve(4)
        c = metrics.counters
        assert c["multiproc.databases"] == 5
        assert c["multiproc.thresholds"] == sum(range(1, 5))
        assert c["multiproc.positions_scanned"] == sum(
            v.shape[0] for v in values.values()
        )
        timers = metrics.timers
        assert timers["multiproc.solve_database"].count == 5
        # One timing per kernel pass: database t's thresholds 1..t run
        # as min(workers, t) slices, whichever process ran each.
        assert timers["multiproc.threshold_seconds"].count == sum(
            min(2, t) for t in range(1, 5)
        )
