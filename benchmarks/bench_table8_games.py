"""Table 8 — generality across games (extension).

The paper's framing: retrograde analysis "has been applied successfully
to several games".  The same distributed solver, unchanged, builds
databases for awari, kalah-nt (store-based mancala: exit-heavy, sparse
internal graph) and nim (win/draw/loss via the capture adapter) — with
visibly different communication/computation profiles.
"""

import numpy as np
from conftest import publish

from repro.analysis.report import Table, format_seconds
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.sequential import SequentialSolver
from repro.core.wdl import solve_wdl
from repro.core.wdl_adapter import solve_wdl_parallel, values_to_status
from repro.games.kalah import KalahCaptureGame
from repro.games.nim import NimGame

PROCS = 16
KALAH_STONES = 7


def _run(bench):
    rows = []
    # awari (from the shared workbench cache).
    awari_stats = bench.parallel(7, n_procs=PROCS, combining_capacity=256)
    rows.append(("awari-7", awari_stats, None))
    # kalah-nt.
    kalah = KalahCaptureGame()
    seq, _ = SequentialSolver(kalah).solve(KALAH_STONES)
    lower = {n: seq[n] for n in range(KALAH_STONES)}
    cfg = ParallelConfig(n_procs=PROCS)
    values, kalah_stats = ParallelSolver(kalah, cfg).solve_database(
        KALAH_STONES, lower, max_events=50_000_000
    )
    np.testing.assert_array_equal(values, seq[KALAH_STONES])
    rows.append((f"kalah-{KALAH_STONES}", kalah_stats, None))
    # nim through the WDL adapter.
    nim = NimGame(heaps=4, cap=7)
    status, nim_stats = solve_wdl_parallel(
        nim, ParallelConfig(n_procs=PROCS), max_events=50_000_000
    )
    np.testing.assert_array_equal(status, solve_wdl(nim).status)
    rows.append((nim.name, nim_stats, None))
    return rows


def test_table8_game_generality(bench):
    rows = _run(bench)

    table = Table(
        f"Table 8 — one distributed solver, three games (P = {PROCS})",
        ["game", "positions", "T_parallel", "updates", "remote%", "factor"],
    )
    for name, s, _ in rows:
        total_updates = s.updates_sent + s.updates_local
        remote = 100.0 * s.updates_sent / total_updates if total_updates else 0.0
        table.add(
            name,
            f"{s.size:,}",
            format_seconds(s.makespan_seconds),
            f"{total_updates:,}",
            f"{remote:.0f}",
            f"{s.combining_factor:.1f}",
        )
    publish("table8_games", table.render())

    stats = {name: s for name, s, _ in rows}
    awari, kalah = stats["awari-7"], stats[f"kalah-{KALAH_STONES}"]
    # Kalah's store sowing makes most moves exits: far fewer internal
    # updates per position than awari.
    awari_rate = (awari.updates_sent + awari.updates_local) / awari.size
    kalah_rate = (kalah.updates_sent + kalah.updates_local) / kalah.size
    assert kalah_rate < 0.5 * awari_rate
    # All three finish with real parallel speedups (sanity).
    for name, s, _ in rows:
        assert s.makespan_seconds > 0
