"""Table 3 — communication statistics with and without combining.

The mechanism behind Figure 1: combining collapses hundreds of thousands
of tiny update messages into MTU-sized packets.  Reports messages, bytes,
combining factor and control-message overhead (termination detection).
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, format_bytes

CONFIGS = [(8, 1), (8, 256), (32, 1), (32, 256)]


def _run(bench):
    return {
        (procs, cap): bench.parallel(
            SWEEP_STONES, n_procs=procs, combining_capacity=cap
        )
        for procs, cap in CONFIGS
    }


def test_table3_message_statistics(bench):
    runs = _run(bench)

    table = Table(
        f"Table 3 — communication statistics ({SWEEP_STONES}-stone database)",
        [
            "procs",
            "combining",
            "updates",
            "packets",
            "factor",
            "bytes",
            "frames",
            "ctrl-msgs",
        ],
        widths=[7, 11, 12, 12, 9, 12, 10, 11],
    )
    for (procs, cap), s in runs.items():
        table.add(
            procs,
            "on" if cap > 1 else "off",
            f"{s.updates_sent:,}",
            f"{s.packets_sent:,}",
            f"{s.combining_factor:.1f}",
            format_bytes(s.bytes_sent),
            f"{s.ethernet_frames:,}",
            f"{s.control_messages:,}",
        )
    publish("table3_messages", table.render())

    for procs in (8, 32):
        on, off = runs[(procs, 256)], runs[(procs, 1)]
        # Same updates cross the network either way ...
        assert abs(on.updates_sent - off.updates_sent) < 0.01 * off.updates_sent
        # ... but combining needs an order of magnitude fewer packets.
        assert on.packets_sent * 8 < off.packets_sent
        assert on.combining_factor > 8.0
        # Control traffic (tokens, phases) is a rounding error.
        assert on.control_messages < 0.05 * on.packets_sent + 1000
