#!/usr/bin/env python
"""Reproduce the paper's headline effect at example scale.

Solves the 7-stone awari database on a simulated 1995 Ethernet cluster
with 1..32 processors, with and without message combining, and prints the
speedup table.  This is a fast, small version of
``benchmarks/bench_fig1_speedup.py``.

Run:  python examples/cluster_speedup.py
"""

from repro import AwariCaptureGame, ParallelConfig, ParallelSolver, SequentialSolver
from repro.analysis import format_seconds, sequential_seconds

STONES = 7


def main() -> None:
    game = AwariCaptureGame()
    print(f"building awari databases up to {STONES} stones ...")
    seq_values, seq_report = SequentialSolver(game).solve(STONES)
    r = seq_report.by_id()[STONES]
    t_seq = sequential_seconds(r.size, r.thresholds, r.parent_notifications)
    print(
        f"uniprocessor (simulated 1995 machine): {format_seconds(t_seq)} "
        f"for the {r.size:,}-position database\n"
    )
    lower = {n: seq_values[n] for n in range(STONES)}

    print(f"{'procs':>6} {'combining':>12} {'naive':>12}   (simulated time)")
    for procs in (1, 2, 4, 8, 16, 32):
        row = []
        for capacity in (256, 1):
            cfg = ParallelConfig(n_procs=procs, combining_capacity=capacity)
            values, stats = ParallelSolver(game, cfg).solve_database(STONES, lower)
            assert (values == seq_values[STONES]).all()
            row.append(stats.makespan_seconds)
        print(
            f"{procs:>6} {format_seconds(row[0]):>12} {format_seconds(row[1]):>12}"
            f"   speedup {t_seq / row[0]:5.1f} vs {t_seq / row[1]:5.1f}"
        )
    print("\nmessage combining is what makes the distributed algorithm scale.")


if __name__ == "__main__":
    main()
