"""Golden reports of the sequential solver: kernel rewrites must not move
a value, a distance or a work counter.

Every :class:`DatabaseReport` field but ``wall_seconds`` (the work
counters flattened in), the SHA-256 of every database's values and of
its ``collect_depth`` distance array are pinned in ``seq_golden.json``.

Regenerate only when the solver's output is *meant* to change::

    PYTHONPATH=src python tests/core/test_seq_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.games.kalah import KalahCaptureGame

GOLDEN = Path(__file__).with_name("seq_golden.json")

#: name → (game factory, target database, SequentialSolver keywords).
CONFIGS = {
    "awari-csr": (AwariCaptureGame, 9, {"predecessor_mode": "csr"}),
    "awari-unmove": (AwariCaptureGame, 8, {"predecessor_mode": "unmove"}),
    "kalah-csr-invariants": (KalahCaptureGame, 6, {"check_invariants": True}),
}


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def run_config(name: str) -> list:
    factory, target, kwargs = CONFIGS[name]
    solver = SequentialSolver(factory(), collect_depth=True, **kwargs)
    values, report = solver.solve(target)
    rows = []
    for r in report.databases:
        row = dataclasses.asdict(r)
        del row["wall_seconds"]
        row.update(row.pop("work"))
        row["values_sha256"] = _sha256(values[r.db_id])
        depth = solver.depths.get(r.db_id)
        row["depth_sha256"] = None if depth is None else _sha256(depth)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_solve_matches_golden(golden, name):
    got = run_config(name)
    want = golden[name]
    assert [d["db_id"] for d in got] == [d["db_id"] for d in want]
    for g, w in zip(got, want):
        assert g == w, f"{name}, database {w['db_id']}"


def test_awari_totals_match_the_benchmark_counts(golden):
    """The pinned ``csr`` run is the ``solve-seq`` workload's solve."""
    dbs = golden["awari-csr"]
    assert sum(d["propagation_rounds"] for d in dbs) == 2_433
    assert sum(d["parent_notifications"] for d in dbs) == 3_291_056


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run_config(name) for name in sorted(CONFIGS)},
                   indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
