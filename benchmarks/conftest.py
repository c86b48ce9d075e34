"""Shared fixtures for the paper's exhibits.

The heavy ingredients — the sequential solve and the simulated parallel
runs — are memoized per session so exhibits that share a configuration
(e.g. Figure 1 and Figure 3 both sweep processor counts) pay for it once.

Every exhibit is a pure function of the code, and its committed
``benchmarks/results/<name>.txt`` is its golden: :func:`publish` rewrites
the file and fails the test, with a unified diff, if the text changed.
A change that was meant reruns the suite and commits the new files.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.calibration import sequential_seconds
from repro.core.parallel.driver import ParallelConfig, ParallelSolver
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame

RESULTS_DIR = Path(__file__).parent / "results"

#: Default stone counts for the benchmark workloads.  8 gives ~75k
#: positions / ~780k updates — big enough for the paper's effects to show,
#: small enough for the whole harness to run in minutes.
HEADLINE_STONES = 8
SWEEP_STONES = 7


class Workbench:
    """Memoizing façade over the solvers."""

    def __init__(self):
        self.game = AwariCaptureGame()
        self._seq_values = {}
        self._seq_reports = {}
        self._runs = {}

    # ------------------------------------------------------------ sequential

    def sequential(self, stones: int):
        if stones not in self._seq_values:
            solver = SequentialSolver(self.game)
            values, report = solver.solve(stones)
            self._seq_values[stones] = values
            self._seq_reports[stones] = report
        return self._seq_values[stones], self._seq_reports[stones]

    def t_seq(self, stones: int) -> float:
        """Calibrated simulated uniprocessor seconds for the top database."""
        _, report = self.sequential(stones)
        r = report.by_id()[stones]
        return sequential_seconds(r.size, r.thresholds, r.parent_notifications)

    def top_report(self, stones: int):
        _, report = self.sequential(stones)
        return report.by_id()[stones]

    # -------------------------------------------------------------- parallel

    def parallel(self, stones: int, **kwargs):
        """Run (or recall) one simulated parallel construction of the
        ``stones`` database; returns its DatabaseRunStats."""
        key = (stones, tuple(sorted(kwargs.items())))
        if key not in self._runs:
            values, _ = self.sequential(stones)
            lower = {n: values[n] for n in range(stones)}
            cfg = ParallelConfig(**kwargs)
            out, stats = ParallelSolver(self.game, cfg).solve_database(
                stones, lower, max_events=50_000_000
            )
            np.testing.assert_array_equal(
                out, values[stones], err_msg="parallel diverged from sequential"
            )
            self._runs[key] = stats
        return self._runs[key]


@pytest.fixture(scope="session")
def bench() -> Workbench:
    return Workbench()


def publish(name: str, text: str) -> None:
    """Print a rendered exhibit, write it to results/<name>.txt and fail
    if the text differs from what that file held."""
    print()
    print(text)
    path = RESULTS_DIR / f"{name}.txt"
    new = text + "\n"
    old = path.read_text() if path.exists() else ""
    path.write_text(new)
    if new != old:
        diff = difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            f"committed results/{name}.txt",
            f"rendered {name}",
        )
        pytest.fail(f"exhibit {name} changed:\n{''.join(diff)}", pytrace=False)
