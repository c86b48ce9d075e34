"""Table 9 — flush-linger sensitivity (extension ablation).

The linger is our reconstruction of "send partial buffers when the
worker runs out of other work": 0 flushes instantly at every lull
(scattering wave boundaries into tiny packets), large values delay the
critical path.  The sweet spot sits around a few message times.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, format_seconds

LINGERS = [0.0, 1e-3, 5e-3, 20e-3, 100e-3]
PROCS = 32


def _run(bench):
    return {
        linger: bench.parallel(
            SWEEP_STONES,
            n_procs=PROCS,
            combining_capacity=256,
            flush_linger=linger,
        )
        for linger in LINGERS
    }


def test_table9_linger_sweep(bench):
    runs = _run(bench)

    t_seq = bench.t_seq(SWEEP_STONES)
    table = Table(
        f"Table 9 — flush-linger sweep ({SWEEP_STONES}-stone database, "
        f"P = {PROCS}, capacity 256)",
        ["linger", "T_parallel", "speedup", "packets", "factor"],
    )
    for linger, s in runs.items():
        table.add(
            format_seconds(linger) if linger else "0",
            format_seconds(s.makespan_seconds),
            f"{t_seq / s.makespan_seconds:.1f}",
            f"{s.packets_sent:,}",
            f"{s.combining_factor:.1f}",
        )
    publish("table9_linger", table.render())

    # With the single-pass propagation the buffers stay busy on their
    # own, so performance is robust across 0-20 ms (the linger mostly
    # paces termination probing); only extreme lingers stall the
    # critical path.
    best = min(s.makespan_seconds for s in runs.values())
    for linger in (0.0, 1e-3, 5e-3, 20e-3):
        assert runs[linger].makespan_seconds < 1.15 * best
    assert runs[100e-3].makespan_seconds > runs[1e-3].makespan_seconds
    # Longer lingers combine (weakly) better.
    assert runs[100e-3].combining_factor >= runs[0.0].combining_factor
