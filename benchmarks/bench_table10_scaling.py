"""Table 10 — strong scaling limits and isoefficiency (extension).

The classic HPC framing of the paper's result: for a fixed database,
where does adding processors stop paying, and how fast must the database
grow to keep 64 machines busy?  Computed from the validated analytic
model (Table 5) at the notification rate measured on the solved
databases.
"""

from conftest import HEADLINE_STONES, publish

from repro.analysis.model import ModelInput
from repro.analysis.scaling import isoefficiency, strong_scaling_limit
from repro.analysis.report import Table
from repro.games.awari_index import AwariIndexer


def _base(bench) -> ModelInput:
    report = bench.top_report(HEADLINE_STONES)
    return ModelInput(
        size=report.size,
        thresholds=report.thresholds,
        notifications=report.parent_notifications,
        n_procs=1,
        waves=report.propagation_rounds / report.thresholds,
    )


def test_table10_scaling_limits(bench):
    base = _base(bench)

    points, limit = strong_scaling_limit(base, efficiency_floor=0.5)
    strong = Table(
        f"Table 10a — strong scaling of the {HEADLINE_STONES}-stone database "
        "(analytic model)",
        ["procs", "speedup", "efficiency"],
    )
    for pt in points:
        strong.add(pt.procs, f"{pt.speedup:.1f}", f"{pt.efficiency:.2f}")

    iso = isoefficiency(base, target_efficiency=0.75)
    iso_table = Table(
        "Table 10b — isoefficiency: positions needed for 75% efficiency",
        ["procs", "required positions", "~awari stones"],
    )
    for procs, size in iso:
        stones = next(
            (n for n in range(1, 30) if AwariIndexer(n).count >= size), 30
        )
        iso_table.add(procs, f"{size:,}", stones)

    text = "\n".join(
        [
            strong.render(),
            "",
            iso_table.render(),
            "",
            f"# adding processors past P={limit} drops efficiency below 50% "
            "for this database;",
            "# the paper ran its 64 machines on a 33x larger database — "
            "right where the isoefficiency curve says they pay off.",
        ]
    )
    publish("table10_scaling", text)

    # Efficiency decreases monotonically with P for a fixed workload.
    effs = [pt.efficiency for pt in points]
    assert all(b <= a + 1e-9 for a, b in zip(effs, effs[1:]))
    # Bigger clusters need bigger databases.
    sizes = [size for _, size in iso]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    # 64 processors are justified by paper-scale databases.
    need_64 = dict(iso)[64]
    assert need_64 > base.size / 4