"""Figure 3 — Ethernet utilization vs processors.

Why efficiency falls below 1: the 10 Mbit/s segment is shared, so the
total update traffic serializes.  Without combining the wire saturates
early (packets are mostly header); with combining the same updates fit in
far less wire time.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, series

PROCS = [2, 4, 8, 16, 32, 64]


def _run(bench):
    util_on, util_off = [], []
    for procs in PROCS:
        s_on = bench.parallel(SWEEP_STONES, n_procs=procs, combining_capacity=256)
        s_off = bench.parallel(SWEEP_STONES, n_procs=procs, combining_capacity=1)
        util_on.append(s_on.ethernet_utilization)
        util_off.append(s_off.ethernet_utilization)
    return util_on, util_off


def test_fig3_network_utilization(bench):
    util_on, util_off = _run(bench)

    table = Table(
        f"Figure 3 — shared-Ethernet utilization ({SWEEP_STONES}-stone database)",
        ["procs", "combining", "no combining"],
    )
    for p, on, off in zip(PROCS, util_on, util_off):
        table.add(p, f"{on:.2f}", f"{off:.2f}")
    text = "\n".join(
        [
            table.render(),
            "",
            series(
                "Figure 3a — utilization, combining on",
                PROCS, util_on, "procs", "utilization",
            ),
            "",
            series(
                "Figure 3b — utilization, combining off",
                PROCS, util_off, "procs", "utilization",
            ),
        ]
    )
    publish("fig3_network", text)

    # Utilization grows with P in both variants ...
    assert util_on[-1] > util_on[0]
    assert util_off[-1] > util_off[0]
    # ... the naive variant pushes the wire much harder ...
    for on, off in zip(util_on[2:], util_off[2:]):
        assert off > on
    # ... and approaches saturation at 64 processors.
    assert util_off[-1] > 0.7
