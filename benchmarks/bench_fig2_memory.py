"""Figure 2 — memory per processor vs cluster size.

The paper's second motivation: "an even larger database ... would have
required over 600 MByte of internal memory on a uniprocessor".
Distribution makes per-node memory scale as 1/P.  We measure the modeled
per-node footprint of the benchmark database and extrapolate the same
accounting to paper-scale databases to locate the 600 MB wall.
"""

from conftest import HEADLINE_STONES, publish

from repro.analysis.report import Table, format_bytes, series
from repro.games.awari_index import AwariIndexer

PROCS = [1, 4, 16, 64]

#: Construction-time bytes per position of the 1995-modeled layout,
#: matching RAWorker.MODELED_BYTES_PER_POSITION.
BYTES_PER_POSITION = 12


def _run(bench):
    return {
        procs: bench.parallel(
            HEADLINE_STONES, n_procs=procs, combining_capacity=256
        )
        for procs in PROCS
    }


def test_fig2_memory_distribution(bench):
    runs = _run(bench)

    table = Table(
        f"Figure 2 — measured per-node memory, {HEADLINE_STONES}-stone "
        "database under construction",
        ["procs", "max-node", "total", "vs-uniprocessor"],
    )
    uni = max(runs[1].memory_modeled_bytes_per_node)
    per_node = {}
    for procs, s in runs.items():
        mx = max(s.memory_modeled_bytes_per_node)
        per_node[procs] = mx
        table.add(
            procs,
            format_bytes(mx),
            format_bytes(sum(s.memory_modeled_bytes_per_node)),
            f"{mx / uni:.2f}",
        )

    # Extrapolation: cumulative construction state for databases up to n
    # stones (the under-construction database dominates; replicated
    # smaller databases add one byte per position).
    lines = [table.render(), ""]
    wall_rows = []
    for stones in (13, 15, 17, 18, 19, 20):
        top = AwariIndexer(stones).count
        lower = sum(AwariIndexer(k).count for k in range(stones))
        uni_bytes = BYTES_PER_POSITION * top + lower
        wall_rows.append((stones, uni_bytes))
    ex = Table(
        "Figure 2b — uniprocessor memory extrapolation (construction state)",
        ["stones", "positions", "uniprocessor", "per-node @64"],
    )
    for stones, uni_bytes in wall_rows:
        ex.add(
            stones,
            f"{AwariIndexer(stones).count:,}",
            format_bytes(uni_bytes),
            format_bytes(uni_bytes / 64),
        )
    lines.append(ex.render())
    over = [s for s, b in wall_rows if b > 600e6]
    lines.append("")
    lines.append(
        f"# the paper's 600 MB uniprocessor wall is crossed at "
        f"{over[0] if over else '>20'} stones — the scale of the paper's "
        "'even larger database' (20 hours on 64 processors, many weeks "
        "sequentially); 64-way distribution defers the wall far beyond."
    )
    lines.append(
        series(
            "Figure 2c — max per-node memory vs P (measured)",
            PROCS,
            [per_node[p] / 1e6 for p in PROCS],
            "procs",
            "MB/node",
        )
    )
    publish("fig2_memory", "\n".join(lines))

    # The distributed construction state must scale down as 1/P; the
    # replicated smaller databases are the only non-scaling term.
    lower = sum(AwariIndexer(k).count for k in range(HEADLINE_STONES))
    construction = {p: per_node[p] - lower for p in PROCS}
    assert construction[64] < construction[1] / 32
    assert over and over[0] <= 20
