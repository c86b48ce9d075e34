"""Table 2 — the headline result.

Paper (abstract): the large awari database took 50 minutes on 64
processors vs 40 hours on one machine — speedup 48.

We run the same algorithm on the simulated 64-node Ethernet pool at
benchmark scale (8 stones) and report measured speedups, then extrapolate
the calibrated cost model to the paper's 13-stone workload for the
paper-vs-model comparison recorded in EXPERIMENTS.md.
"""

from conftest import HEADLINE_STONES, publish

from repro.analysis.calibration import (
    PAPER_HEADLINE,
    PAPER_SECOND_HEADLINE,
    headline_table,
    second_headline_table,
)
from repro.analysis.model import ModelInput, predict
from repro.analysis.report import Table, format_seconds

PROCS = [1, 4, 16, 64]


def _run(bench):
    rows = []
    t_seq = bench.t_seq(HEADLINE_STONES)
    for procs in PROCS:
        stats = bench.parallel(
            HEADLINE_STONES, n_procs=procs, combining_capacity=256
        )
        rows.append((procs, t_seq, stats))
    return rows


def test_table2_headline(bench):
    rows = _run(bench)

    table = Table(
        f"Table 2 — headline runtimes, awari {HEADLINE_STONES}-stone database "
        "(simulated 1995 cluster, combining on)",
        ["procs", "T_parallel", "speedup", "efficiency", "combining", "eth-util"],
    )
    t_seq = rows[0][1]
    speedups = {}
    for procs, _, stats in rows:
        speedup = t_seq / stats.makespan_seconds
        speedups[procs] = speedup
        table.add(
            procs,
            format_seconds(stats.makespan_seconds),
            f"{speedup:.1f}",
            f"{speedup / procs:.2f}",
            f"{stats.combining_factor:.1f}",
            f"{stats.ethernet_utilization:.2f}",
        )

    # Extrapolate the calibrated model to the paper's 13-stone workload.
    _, report = bench.sequential(HEADLINE_STONES)
    measured = [r for r in report.databases if r.thresholds]
    extra = headline_table(measured)
    pred = predict(
        ModelInput(
            size=extra["target_positions"],
            thresholds=13,
            notifications=extra["predicted_notifications"],
            n_procs=64,
        )
    )
    lines = [
        table.render(),
        "",
        "# extrapolation to the paper's 13-stone database "
        "(calibrated cost model)",
        f"  positions: {extra['target_positions']:,}",
        f"  model sequential time : {extra['sequential_hours_model']:.1f} h "
        f"(paper: {PAPER_HEADLINE['sequential_hours']:.0f} h)",
        f"  model 64-proc time    : {pred.t_parallel / 60:.0f} min "
        f"(paper: {PAPER_HEADLINE['parallel_minutes']:.0f} min)",
        f"  model speedup         : {pred.speedup:.0f} "
        f"(paper: {PAPER_HEADLINE['speedup']:.0f})",
    ]
    second = second_headline_table(measured)
    lines += [
        "",
        "# the 'even larger database' claim, reconstructed as "
        f"{second['stones']} stones ({second['positions']:,} positions)",
        f"  model 64-proc time    : {second['parallel_hours_model']:.0f} h "
        f"(paper: {PAPER_SECOND_HEADLINE['parallel_hours']:.0f} h)",
        f"  model sequential time : {second['sequential_weeks_model']:.1f} weeks "
        f"(paper: 'many weeks')",
        f"  model uniprocessor mem: {second['memory_mbytes_model']:.0f} MB "
        f"(paper: > {PAPER_SECOND_HEADLINE['memory_wall_mbytes']:.0f} MB)",
    ]
    publish("table2_headline", "\n".join(lines))

    # Shape assertions: near-linear at small P, strong speedup at 64.
    assert speedups[4] > 3.0
    assert speedups[64] > 25.0
    assert (
        0.3 * PAPER_HEADLINE["sequential_hours"]
        < extra["sequential_hours_model"]
        < 3 * PAPER_HEADLINE["sequential_hours"]
    )
