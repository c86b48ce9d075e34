#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

::

    python3 bench/compare.py --base A.json [A2.json ...] --new B.json [...]

Each argument is a result file written by ``bench/run.py`` or a
directory of them.  For every workload × metric the medians, quartiles
and the change are printed with a verdict:

* ``better`` — every new run reads better than every base run, or the
  medians improved by more than the base runs' own interquartile spread;
* ``within bound`` — the median is no worse than the bound in
  ``BENCHMARK.json`` allows (or the change is below the absolute floor);
* ``worse`` — the median worsened by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so neither of the above can be said;
* ``identical`` / ``differs`` — count metrics must repeat exactly
  between runs of the same seed;
* ``host differs`` — the two sides' runs of this workload were made
  while the host's calibration read more than a tenth apart (a loud
  neighbour on a shared box), so no timing verdict is issued.

Per-layer metrics have no bound: they are listed with their change and
gated only where they are counts.  The exit status is 1 on any ``worse``
or ``differs``; else 2 when the two sides are not comparable (different
host fingerprint) or any workload's verdicts were withheld; else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import catalog, stats  # noqa: E402

#: Host fields that must match, and how far calibration may differ.
COMPARABLE_KEYS = ("nproc", "cpu_model", "machine", "python", "numpy")
CALIBRATION_TOLERANCE = 0.10

FAILING = ("worse", "differs")


def load_runs(paths) -> list:
    """Every run record under ``paths`` (files or directories)."""
    runs = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        if not files:
            raise ValueError(f"no result files under {path}")
        for file in files:
            payload = json.loads(file.read_text())
            if "runs" not in payload:
                raise ValueError(f"{file} is not a bench result file")
            runs.extend(payload["runs"])
    return runs


def comparability(base_runs, new_runs) -> list:
    """Reasons the two sides must not be compared at all; empty when
    they may."""
    reasons = []
    hosts = [r["host"] for r in base_runs + new_runs]
    for key in COMPARABLE_KEYS:
        seen = sorted({str(h.get(key)) for h in hosts})
        if len(seen) > 1:
            reasons.append(f"{key} differs: {' vs '.join(seen)}")
    return reasons


def calibration_apart(base_runs, new_runs) -> bool:
    """Whether the host read more than a tenth faster or slower while one
    side's runs were made than during the other's.  Taken per workload:
    interference on a shared box comes in stretches of minutes, which is
    one workload's ten runs, not a whole set's."""
    base = stats.percentile([r["host"]["calib_ms"] for r in base_runs], 50)
    new = stats.percentile([r["host"]["calib_ms"] for r in new_runs], 50)
    return abs(new - base) > CALIBRATION_TOLERANCE * base


def verdict(base, new, better: str, bound: float, floor: float) -> str:
    """The rule of the metrics guide for one bounded metric."""
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = stats.quartiles(base)
    worse_by = sign * (stats.quartiles(new)[1] - base_median)
    if abs(worse_by) < floor:
        return "within bound"
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better"
    if max(stats.spread(base), stats.spread(new)) > bound:
        return "unresolved"
    if worse_by > bound * abs(base_median):
        return "worse"
    if -worse_by > q3 - q1:
        return "better"
    return "within bound"


def count_verdict(base_runs, new_runs, name: str) -> str:
    """Counts must be identical wherever both sides ran the same seed."""
    by_seed: dict = {}
    for run in base_runs + new_runs:
        by_seed.setdefault(run["seed"], set()).add(
            run["metrics"][name]["value"])
    shared = {r["seed"] for r in base_runs} & {r["seed"] for r in new_runs}
    if not shared:
        return "no common seed"
    return "identical" if all(
        len(by_seed[seed]) == 1 for seed in shared) else "differs"


def compare(base_runs, new_runs, contract: dict) -> list:
    """Rows ``(workload, metric, unit, base stats, new stats, change, verdict)``."""
    bounded = {m["name"]: m for m in contract["end_to_end"]}
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in base_runs}
                  & {(r["workload"], r["trace"]) for r in new_runs})
    for workload, trace in keys:
        base = [r for r in base_runs
                if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_runs
               if (r["workload"], r["trace"]) == (workload, trace)]
        host_differs = calibration_apart(base, new)
        for name, cell in base[0]["metrics"].items():
            if not all(name in r["metrics"] for r in base + new):
                continue
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            b_q, n_q = stats.quartiles(b), stats.quartiles(n)
            change = (n_q[1] - b_q[1]) / abs(b_q[1]) if b_q[1] else 0.0
            if name in bounded and host_differs:
                result = "host differs"
            elif name in bounded:
                spec = bounded[name]
                result = verdict(b, n, spec["better"], spec["bound"],
                                 catalog.FLOORS.get(name, 0.0))
            elif cell["unit"] in catalog.COUNT_UNITS:
                result = count_verdict(base, new, name)
            else:
                result = ""
            rows.append((workload, name, cell["unit"], b_q, n_q, change, result))
        failed = sum(r["failed"] for r in new)
        if failed or not all(r["correct"] for r in new):
            rows.append((workload, "failed operations", "count",
                         (0, sum(r["failed"] for r in base), 0),
                         (0, failed, 0), 0.0, "worse"))
    return rows


def render(rows) -> str:
    lines = [f"{'workload':<14} {'metric':<44} {'base q1/median/q3':>34} "
             f"{'new q1/median/q3':>34} {'change':>8}  verdict"]
    for workload, name, unit, b, n, change, result in rows:
        lines.append(
            f"{workload:<14} {name + ' [' + unit + ']':<44} "
            f"{b[0]:>10.5g} {b[1]:>11.6g} {b[2]:>10.5g}  "
            f"{n[0]:>10.5g} {n[1]:>11.6g} {n[2]:>10.5g} "
            f"{change:>+8.1%}  {result}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    reasons = comparability(base_runs, new_runs)
    if reasons:
        print("refusing to compare: " + "; ".join(reasons), file=sys.stderr)
        return 2
    rows = compare(base_runs, new_runs, catalog.load_contract())
    print(render(rows))
    tally: dict = {}
    for row in rows:
        if row[-1]:
            tally[row[-1]] = tally.get(row[-1], 0) + 1
    print("\n" + ", ".join(f"{count} {name}" for name, count in sorted(tally.items())))
    if any(row[-1] in FAILING for row in rows):
        return 1
    return 2 if "host differs" in tally else 0


if __name__ == "__main__":
    sys.exit(main())
