"""Golden counts of the simulated cluster: host-side rewrites must not
move the simulation.

Every field of every :class:`DatabaseRunStats` (floats compared by their
exact ``float.hex`` — the makespan and per-node CPU included) and the
SHA-256 of every database's values are pinned in ``sim_golden.json``.
The simulator charges simulated cost per step, so a change that only
makes the host faster must leave all of it identical: same steps, same
charges in the same order, same messages, same packet contents.

Regenerate only when the simulation is *meant* to change::

    PYTHONPATH=src python tests/core/test_sim_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.games.awari_db import AwariCaptureGame

GOLDEN = Path(__file__).with_name("sim_golden.json")
STONES = 5

#: name → the config the simulated cluster runs awari 0..STONES with.
CONFIGS = {
    "p16-unmove": ParallelConfig(n_procs=16),
    "p4-csr": ParallelConfig(n_procs=4, predecessor_mode="csr"),
    "p4-capacity1": ParallelConfig(n_procs=4, combining_capacity=1),
    "p4-unmove": ParallelConfig(n_procs=4),
    "p5-hash-unmove": ParallelConfig(n_procs=5, partition="hash"),
    "p3-block-csr": ParallelConfig(
        n_procs=3, partition="block", predecessor_mode="csr"
    ),
    "p4-speeds": ParallelConfig(n_procs=4, node_speeds=(1.0, 2.0, 1.5, 0.7)),
}


def _exact(value):
    """JSON-safe, bit-exact form of a stats field."""
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return value


def run_config(name: str) -> list:
    values, stats = ParallelSolver(AwariCaptureGame(), CONFIGS[name]).solve(
        STONES
    )
    return [
        {
            **{k: _exact(v) for k, v in dataclasses.asdict(s).items()},
            "values_sha256": hashlib.sha256(
                np.ascontiguousarray(values[s.db_id]).tobytes()
            ).hexdigest(),
        }
        for s in stats
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulation_matches_golden(golden, name):
    got = run_config(name)
    want = golden[name]
    assert [d["db_id"] for d in got] == [d["db_id"] for d in want]
    for g, w in zip(got, want):
        assert g == w, f"{name}, database {w['db_id']}"


def test_p16_totals_match_the_benchmark_counts(golden):
    """The pinned P = 16 run is the ``sim-p16`` workload's solve."""
    dbs = golden["p16-unmove"]
    assert sum(d["events"] for d in dbs) == 48_873
    assert sum(d["packets_sent"] for d in dbs) == 6_898
    assert sum(d["updates_sent"] for d in dbs) == 37_331


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run_config(name) for name in sorted(CONFIGS)},
                   indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
