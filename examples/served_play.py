#!/usr/bin/env python
"""Perfect endgame play over the network.

The `endgame_play.py` scenario replayed through the serving stack: the
databases are converted to the paged on-disk format, served by a TCP
probe server whose cache budget is *smaller than the databases*, and the
optimal lines are replayed by a client that never holds a database in
memory — :class:`~repro.aserve.client.BinaryProbeClient` speaks the same
probe protocol as an in-process :class:`~repro.db.store.DatabaseSet`,
so :func:`~repro.db.query.optimal_line` runs over it unchanged.

Run:  python examples/served_play.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import solve_awari
from repro.db import optimal_line
from repro.games import AwariCaptureGame
from repro.aserve import AsyncProbeServer, BinaryProbeClient
from repro.serve import ProbeService, write_paged

STONES = 7
CACHE_BYTES = 16 * 1024  # far smaller than the 7-stone database


def describe(value: int) -> str:
    if value > 0:
        return f"the mover captures {value} more stone(s) than the opponent"
    if value < 0:
        return f"the opponent captures {-value} more stone(s) under best play"
    return "perfectly balanced: optimal play captures nothing for either side"


def main() -> None:
    dbs, _ = solve_awari(STONES)
    game = AwariCaptureGame()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"awari{STONES}.pgdb"
        summary = write_paged(dbs, path)
        print(
            f"paged {summary['positions']:,} positions "
            f"({summary['value_bytes'] / 1024:.0f} KiB int16 -> "
            f"{summary['stored_bytes'] / 1024:.0f} KiB on disk)"
        )
        service = ProbeService.from_paged(path, cache_bytes=CACHE_BYTES)
        with AsyncProbeServer(service) as server:
            print(
                f"probe server on {server.host}:{server.port}, cache budget "
                f"{CACHE_BYTES // 1024} KiB\n"
            )
            with BinaryProbeClient(server.host, server.port) as client:
                play(game, dbs, client)
                stats = client.stats()
                print(
                    f"server cache after play: {stats['hits']} hits / "
                    f"{stats['misses']} misses "
                    f"(hit rate {100 * stats['hit_rate']:.0f}%), "
                    f"{stats['resident_bytes']:,} bytes resident of "
                    f"{stats['budget_bytes']:,} budget"
                )
        service.close()


def play(game: AwariCaptureGame, dbs, client: BinaryProbeClient) -> None:
    rng = np.random.default_rng(7)
    indexer = game.engine.indexer(STONES)
    print("three random endgames, solved exactly over TCP:\n")
    for idx in rng.integers(0, indexer.count, size=3):
        board = indexer.unrank(np.array([idx]))[0]
        value = client.probe(STONES, int(idx))
        assert value == int(dbs[STONES][idx]), "served value must match"
        print(game.engine.board_to_string(board))
        print(f"served value: {value:+d} — {describe(value)}")
        realized, pits = optimal_line(game, client, board)
        shown = ", ".join(str(p) for p in pits[:12])
        more = " ..." if len(pits) > 12 else ""
        print(f"perfect line (pits): {shown}{more}")
        print(f"realized capture difference: {realized:+d}")
        assert realized == value, "replay must realize the stored value"
        print()


if __name__ == "__main__":
    main()
