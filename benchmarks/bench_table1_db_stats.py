"""Table 1 — awari endgame database statistics.

Reproduces the database-size/content table: positions per stone count and
the win/draw/loss split computed by retrograde analysis.  (Reconstructed
exhibit: the paper reports the databases it computed up to 13 stones; the
position-count column follows C(n+11, 11) exactly.)
"""

from conftest import HEADLINE_STONES, publish

from repro.analysis.report import Table
from repro.db.stats import database_stats
from repro.games.awari_index import AwariIndexer


def _build(bench):
    values, report = bench.sequential(HEADLINE_STONES)
    return values, report


def test_table1_database_statistics(bench):
    values, report = _build(bench)

    table = Table(
        "Table 1 — awari endgame databases (win/draw/loss for the mover)",
        ["stones", "positions", "wins", "draws", "losses", "draw%", "notifications"],
        widths=[8, 12, 10, 9, 10, 8, 15],
    )
    by_id = report.by_id()
    for n in range(HEADLINE_STONES + 1):
        st = database_stats(n, values[n])
        # The combinatorial count must match the closed form.
        assert st.positions == AwariIndexer(n).count
        table.add(
            n,
            f"{st.positions:,}",
            f"{st.wins:,}",
            f"{st.draws:,}",
            f"{st.losses:,}",
            f"{100 * st.draw_fraction:.1f}",
            f"{by_id[n].parent_notifications:,}",
        )
    # Paper-scale context rows (sizes only; values need the full solve).
    for n in (10, 13):
        table.add(n, f"{AwariIndexer(n).count:,}", "-", "-", "-", "-", "-")
    publish("table1_db_stats", table.render())

    # Shape assertions: databases grow by the known combinatorial factor
    # and every database is fully classified.
    for n in range(1, HEADLINE_STONES + 1):
        st = database_stats(n, values[n])
        assert st.wins + st.draws + st.losses == st.positions
