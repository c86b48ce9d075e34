"""Table 4 — sensitivity to the combining buffer capacity.

Ablation of the paper's key parameter: tiny buffers degenerate into the
naive algorithm.  The sweet spot sits near the update volume a worker
produces per dependency wave per destination — buffers around that size
ship full packets *mid-wave*, pipelining receivers; much larger buffers
only ever flush at lulls, which costs a few percent.  Beyond the knee
the curve is flat.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, format_seconds

CAPACITIES = [1, 4, 16, 64, 256, 1024, 4096]
PROCS = 16


def _run(bench):
    return {
        cap: bench.parallel(SWEEP_STONES, n_procs=PROCS, combining_capacity=cap)
        for cap in CAPACITIES
    }


def test_table4_buffer_capacity_sweep(bench):
    runs = _run(bench)

    t_seq = bench.t_seq(SWEEP_STONES)
    table = Table(
        f"Table 4 — combining capacity sweep ({SWEEP_STONES}-stone database, "
        f"P = {PROCS})",
        ["capacity", "T_parallel", "speedup", "packets", "factor", "eth-util"],
    )
    for cap, s in runs.items():
        table.add(
            cap,
            format_seconds(s.makespan_seconds),
            f"{t_seq / s.makespan_seconds:.1f}",
            f"{s.packets_sent:,}",
            f"{s.combining_factor:.1f}",
            f"{s.ethernet_utilization:.2f}",
        )
    publish("table4_buffer_sweep", table.render())

    times = {cap: s.makespan_seconds for cap, s in runs.items()}
    # Clear improvement from naive to the knee ...
    assert times[1] > 1.2 * times[16]
    # ... flat beyond it: every capacity >= 16 within 15% of the best.
    best = min(times[c] for c in CAPACITIES if c >= 16)
    for cap in (64, 256, 1024, 4096):
        assert times[cap] < 1.15 * best
    # Any real combining slashes the packet count vs naive.
    for cap in CAPACITIES[1:]:
        assert runs[cap].packets_sent < runs[1].packets_sent / 3
        assert runs[cap].combining_factor > 3.0
