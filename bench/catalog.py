"""The contract, read from ``BENCHMARK.json``, and the two facts it cannot hold.

``BENCHMARK.json`` at the repo root is the single source of workload
names, metric names, units, directions and bounds: the harness and
``compare.py`` both read it through :func:`load_contract`.  The file
admits exactly four keys per metric, so the absolute floors and the
units that must repeat exactly live here.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["BENCHMARK_PATH", "FLOORS", "COUNT_UNITS", "load_contract"]

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Absolute changes below these are never a regression in ``compare.py``
#: (sub-second set-up is not gated on milliseconds).  In the metric's unit.
FLOORS = {
    "setup_s": 0.25,
    "op_p50_ms": 0.05,
    "op_tail_ms": 0.10,
    "positions_per_s": 0.0,
    "peak_rss_mb": 2.0,
}

#: Units whose values must repeat exactly between runs of one commit.
COUNT_UNITS = ("count", "bytes")


def load_contract() -> dict:
    """``BENCHMARK.json`` as a dict: ``run_seconds``, ``workloads``,
    ``end_to_end`` and ``per_layer`` as the driver reads them."""
    return json.loads(BENCHMARK_PATH.read_text())
