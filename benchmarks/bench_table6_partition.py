"""Table 6 — partitioning-strategy ablation.

Owner-computes partitioning controls load balance: block partitions put
whole index regions (which finalize together) on one node; cyclic and
hash spread them.  All three compute identical databases.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, format_seconds

PARTITIONS = ["block", "cyclic", "hash"]
PROCS = 16


def _run(bench):
    return {
        kind: bench.parallel(
            SWEEP_STONES, n_procs=PROCS, combining_capacity=256, partition=kind
        )
        for kind in PARTITIONS
    }


def test_table6_partition_ablation(bench):
    runs = _run(bench)

    t_seq = bench.t_seq(SWEEP_STONES)
    table = Table(
        f"Table 6 — partition strategies ({SWEEP_STONES}-stone database, "
        f"P = {PROCS})",
        ["partition", "T_parallel", "speedup", "cpu-imbalance", "packets"],
    )
    for kind, s in runs.items():
        table.add(
            kind,
            format_seconds(s.makespan_seconds),
            f"{t_seq / s.makespan_seconds:.1f}",
            f"{s.load_imbalance:.2f}",
            f"{s.packets_sent:,}",
        )
    publish("table6_partition", table.render())

    # Scattering partitions balance CPU time better than block.
    assert runs["cyclic"].load_imbalance <= runs["block"].load_imbalance + 0.02
    assert runs["hash"].load_imbalance < 1.5
    # Every strategy still delivers a real speedup.
    for s in runs.values():
        assert t_seq / s.makespan_seconds > PROCS * 0.4
