"""Figure 1 — speedup vs processors, with and without message combining.

The paper's central figure: naive one-message-per-update parallelization
drowns in communication overhead; message combining restores near-linear
scaling until the shared Ethernet saturates.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, series

PROCS = [1, 2, 4, 8, 16, 32, 64]


def _run(bench):
    t_seq = bench.t_seq(SWEEP_STONES)
    combining, naive = [], []
    for procs in PROCS:
        s_on = bench.parallel(SWEEP_STONES, n_procs=procs, combining_capacity=256)
        s_off = bench.parallel(SWEEP_STONES, n_procs=procs, combining_capacity=1)
        combining.append(t_seq / s_on.makespan_seconds)
        naive.append(t_seq / s_off.makespan_seconds)
    return t_seq, combining, naive


def test_fig1_speedup_curves(bench):
    t_seq, combining, naive = _run(bench)

    table = Table(
        f"Figure 1 — speedup vs processors ({SWEEP_STONES}-stone database, "
        f"T_seq = {t_seq:.0f}s simulated)",
        ["procs", "combining", "no combining", "advantage"],
    )
    for p, on, off in zip(PROCS, combining, naive):
        table.add(p, f"{on:.1f}", f"{off:.1f}", f"{on / off:.1f}x")
    text = "\n".join(
        [
            table.render(),
            "",
            series(
                "Figure 1a — speedup with message combining",
                PROCS,
                combining,
                "procs",
                "speedup",
            ),
            "",
            series(
                "Figure 1b — speedup without combining (naive)",
                PROCS,
                naive,
                "procs",
                "speedup",
            ),
        ]
    )
    publish("fig1_speedup", text)

    # Shape assertions — the paper's qualitative claims.
    # 1. Combining always wins beyond one processor.
    for p, on, off in zip(PROCS[1:], combining[1:], naive[1:]):
        assert on > off, f"combining lost at P={p}"
    # 2. The naive variant saturates the shared wire: its speedup
    #    plateaus between 32 and 64 processors at poor efficiency.
    assert naive[-1] < naive[-2] * 1.25
    assert naive[-1] < 0.35 * PROCS[-1]
    # 3. Combining keeps scaling to 64 processors (>= 3x the naive
    #    variant there) ...
    assert combining[-1] > combining[-3]
    assert combining[-1] > 2.5 * naive[-1]
    # 4. ... and its speedup is monotone in P.
    assert all(b >= a * 0.95 for a, b in zip(combining, combining[1:]))
