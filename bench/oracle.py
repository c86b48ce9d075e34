"""The oracle: committed facts about awari databases 0..10, and the fixture.

Game values under fixed rules are mathematical facts, so
``expected.json`` pins the SHA-256 and the value histogram of every
database once and every timed solve is compared against it — the
benchmark does not trust the solver it is timing to also be its own
reference.  The serve workloads need the solved databases as a file;
that *fixture* is built once per checkout (it is the benchmark's build
step), verified against the same oracle, and reused by later runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.core.sequential import SequentialSolver
from repro.db.store import DatabaseSet
from repro.games.registry import capture_game

__all__ = [
    "BENCH_DIR",
    "OUT_DIR",
    "FIXTURE_STONES",
    "describe",
    "load_expected",
    "mismatches",
    "ensure_fixture",
]

BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes lands here (git-ignored).
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: The fixture holds awari databases 0..FIXTURE_STONES (646,646 positions).
FIXTURE_STONES = 10
GAME = "awari"


def describe(values: np.ndarray) -> dict:
    """Positions, SHA-256 (little-endian int16 bytes) and value histogram."""
    values = np.ascontiguousarray(values, dtype="<i2")
    uniq, counts = np.unique(values, return_counts=True)
    return {
        "positions": int(values.shape[0]),
        "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "histogram": {str(int(v)): int(c) for v, c in zip(uniq, counts)},
    }


def load_expected() -> dict:
    """``{db_id: {"positions", "sha256", "histogram"}}`` from expected.json."""
    raw = json.loads(EXPECTED_PATH.read_text())
    if raw.get("game") != GAME:
        raise ValueError(f"{EXPECTED_PATH} is not for {GAME!r}")
    return {int(k): v for k, v in raw["databases"].items()}


def mismatches(values, expected: dict, ids) -> list:
    """Human-readable differences between solved ``values`` (mapping
    db_id → array) and the oracle over ``ids``; empty when all agree."""
    problems = []
    for db_id in ids:
        if db_id not in values:
            problems.append(f"db {db_id}: missing from the solve")
            continue
        want = expected[db_id]
        arr = np.ascontiguousarray(values[db_id], dtype="<i2")
        if hashlib.sha256(arr.tobytes()).hexdigest() == want["sha256"]:
            continue
        got = describe(arr)
        problems.append(
            f"db {db_id}: sha256 {got['sha256'][:12]} != {want['sha256'][:12]}; "
            f"positions {got['positions']} vs {want['positions']}; "
            f"histogram {got['histogram']} vs {want['histogram']}"
        )
    return problems


def _fixture_path() -> Path:
    return OUT_DIR / f"fixture-{GAME}{FIXTURE_STONES}.npz"


def ensure_fixture() -> tuple:
    """``(path, DatabaseSet, build seconds)`` — build seconds is 0.0 when
    a verified fixture from an earlier run of this checkout was reused.

    A fixture that does not match the oracle (stale file, or a solver
    that has gone wrong) is never served: it is rebuilt once, and a
    rebuilt fixture that still mismatches is an error.
    """
    expected = load_expected()
    ids = range(FIXTURE_STONES + 1)
    path = _fixture_path()
    if path.exists():
        dbs = DatabaseSet.load(path)
        if not mismatches(dbs.values, expected, ids):
            return path, dbs, 0.0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    game = capture_game(GAME)
    values, _ = SequentialSolver(game).solve(FIXTURE_STONES)
    problems = mismatches(values, expected, ids)
    if problems:
        raise RuntimeError(
            "the solver's databases disagree with bench/expected.json: "
            + "; ".join(problems)
        )
    dbs = DatabaseSet(game_name=game.name, values=values,
                      rules=game.rules.describe())
    dbs.save(path)
    return path, dbs, time.perf_counter() - t0


def write_expected() -> None:
    """Regenerate expected.json from a fresh solve, cross-checked with an
    independent Bellman verification of every database."""
    from repro.core.verify import check_bellman

    game = capture_game(GAME)
    values, _ = SequentialSolver(game).solve(FIXTURE_STONES)
    for db_id in values:
        report = check_bellman(game, db_id, values)
        if not report.ok:
            raise RuntimeError(f"db {db_id} fails the Bellman check")
    payload = {
        "game": GAME,
        "rules": game.rules.describe(),
        "databases": {str(k): describe(v) for k, v in sorted(values.items())},
    }
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n")
