"""Table 7 — heterogeneous processor pool (extension ablation).

The Amoeba pools the paper ran on were mixed hardware.  The algorithm's
static owner-computes partition cannot rebalance, so the slowest node
sets the pace — quantified here by running the same database on even
pools and on pools with 25% half-speed nodes.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.report import Table, format_seconds

PROCS = 16


def _speeds(kind):
    if kind == "uniform":
        return None
    if kind == "quarter-slow":
        return tuple(2.0 if r % 4 == 0 else 1.0 for r in range(PROCS))
    if kind == "one-slow":
        return tuple(2.0 if r == 0 else 1.0 for r in range(PROCS))
    raise ValueError(kind)


def _run(bench):
    out = {}
    for kind in ("uniform", "one-slow", "quarter-slow"):
        out[kind] = bench.parallel(
            SWEEP_STONES,
            n_procs=PROCS,
            combining_capacity=256,
            node_speeds=_speeds(kind),
        )
    return out


def test_table7_heterogeneous_pool(bench):
    runs = _run(bench)

    t_seq = bench.t_seq(SWEEP_STONES)
    table = Table(
        f"Table 7 — heterogeneous pools ({SWEEP_STONES}-stone database, "
        f"P = {PROCS}; slowdown factor 2.0 on slow nodes)",
        ["pool", "T_parallel", "speedup", "cpu-imbalance"],
    )
    for kind, s in runs.items():
        table.add(
            kind,
            format_seconds(s.makespan_seconds),
            f"{t_seq / s.makespan_seconds:.1f}",
            f"{s.load_imbalance:.2f}",
        )
    publish("table7_heterogeneity", table.render())

    # The static partition pays for stragglers.
    assert (
        runs["one-slow"].makespan_seconds
        > runs["uniform"].makespan_seconds * 1.2
    )
    assert (
        runs["quarter-slow"].makespan_seconds
        >= runs["one-slow"].makespan_seconds * 0.95
    )
