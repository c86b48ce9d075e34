#!/usr/bin/env python3
"""One command for the whole benchmark.

Driver form (one workload, result as the last line of stdout)::

    python3 bench/run.py --workload serve-hot --seed 7 --seconds 10 --trace 0

Human form (no ``--workload``, or several): every named workload's
end-to-end run happens in a fresh child process, every metric is printed
by name and unit, and the records land in one file for ``compare.py``::

    python3 bench/run.py [--seed S] [--workload NAME]... [--trace] [--out FILE]

``--trace`` swaps the end-to-end runs for one traced run: the layer
probes once, then each named workload's ``loadgen.*`` group, all in this
process; per-layer metrics instead, spans in ``bench/out/trace.json``.
The exit status is non-zero when a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RESULT_SCHEMA = "bench/results/v1"


def bootstrap() -> None:
    """Make ``bench`` and ``repro`` importable here and in every child
    (shard servers are started as ``python -m repro serve``)."""
    src = REPO / "src"
    for entry in (str(src), str(REPO)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if str(src) not in inherited:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(src), *filter(None, inherited)])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="inputs are generated from this (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result record(s) to this file "
                             "(several workloads: default bench/out/results.json)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------- measuring


def _record(name: str, seed: int, seconds: float, trace: int, outcome,
            values: dict, notes: dict, fingerprint: dict, metrics) -> dict:
    """One result record; ``metrics`` is the contract's list for this
    kind of run, and exactly its names must have been measured."""
    units = {m["name"]: m["unit"] for m in metrics}
    if set(units) != set(values):
        raise RuntimeError(
            f"measured and contracted metrics differ: "
            f"{sorted(set(units) ^ set(values))}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "notes": notes,
        "host": dict(fingerprint, loadavg_end=os.getloadavg()[0]),
    }


def measure_end_to_end(name: str, seed: int, seconds: float,
                       contract: dict) -> dict:
    """One untraced run of one workload in this process."""
    from bench import host, oracle, stats, workloads

    fingerprint = host.fingerprint()
    notes = {}
    fixture = None
    if name in workloads.SERVE_WORKLOADS:
        # Built once per checkout, before anything is measured; the solve
        # workloads never need it and must not pay its memory.
        *fixture, notes["fixture_s"] = oracle.ensure_fixture()
    outcome = workloads.run_workload(name, seed, seconds, fixture)
    values = {n: v for n, (v, _) in outcome.end_to_end().items()}
    notes.update(outcome.info)
    notes["setup_samples_s"] = outcome.setup_samples_s
    notes["verified_positions"] = outcome.positions
    notes["op_tail_percentile"] = outcome.tail_percentile()
    notes["best_window_p50_ms"] = outcome.best_window_p50_ms()
    notes["latency_ms"] = {
        k: (v if k == "n" else v * 1e3)
        for k, v in stats.summary(outcome.latencies_s).items()}
    return _record(name, seed, seconds, 0, outcome, values, notes,
                   fingerprint, contract["end_to_end"])


def measure_per_layer(names, seed: int, seconds: float,
                      contract: dict) -> list:
    """One traced run in this process: the layer probes once, then the
    ``loadgen.*`` group for each named workload — one record per name,
    all spans in ``bench/out/trace.json``."""
    from bench import host, layers, oracle
    from bench.procs import Sandbox
    from bench.trace import Tracer

    fingerprint = host.fingerprint()
    fixture, dbs, fixture_s = oracle.ensure_fixture()
    tracer = Tracer()
    with Sandbox(oracle.OUT_DIR) as sandbox:
        shared, notes, per_workload = layers.measure_all(
            sandbox, tracer, names, seed, seconds, fixture, dbs)
    notes["fixture_s"] = fixture_s
    records = [
        _record(name, seed, seconds, 1, outcome, {**shared, **own}, notes,
                fingerprint, contract["per_layer"])
        for name, (own, outcome) in per_workload.items()
    ]
    tracer.write(oracle.OUT_DIR / "trace.json", {
        "seed": seed, "metrics": shared,
        "loadgen": {name: own for name, (own, _) in per_workload.items()}})
    return records


def render(record: dict, contract: dict, prefix: str = "") -> str:
    """The record as a table: every metric (whose name starts with
    ``prefix``) by name, value and unit."""
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in contract["end_to_end"]}
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    lines = [
        f"== {record['workload']}  seed {record['seed']}  "
        f"{record['seconds']:g} s  {kind}  "
        f"{record['attempted']} operations, {record['failed']} failed  "
        f"{'CORRECT' if record['correct'] else 'INCORRECT'}"
    ]
    width = max(len(n) for n in record["metrics"])
    for name, cell in record["metrics"].items():
        if not name.startswith(prefix):
            continue
        gate = ""
        if name in bounds:
            better, bound = bounds[name]
            gate = f"  {better} is better, may worsen {bound:.0%}"
        lines.append(f"  {name:<{width}}  {cell['value']:>16.6g} "
                     f"{cell['unit']:<6}{gate}")
    if not prefix:
        for key, value in record["notes"].items():
            lines.append(f"  # {key}: {_short(value)}")
    for problem in record["problems"]:
        lines.append(f"  ! {problem}")
    return "\n".join(lines)


def _short(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={_short(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return " ".join(_short(v) for v in value)
    return str(value)


def result_line(record: dict) -> str:
    """The driver's contract: exactly these four keys, as one line."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def write_records(path: Path, records: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": RESULT_SCHEMA, "runs": records}, indent=1))


# ------------------------------------------------------------ all workloads


def run_children(names, args, seconds: float) -> int:
    """Each workload's untraced run in a fresh interpreter, one after
    another, so that no workload inherits another's memory or threads."""
    from bench import oracle

    oracle.OUT_DIR.mkdir(parents=True, exist_ok=True)
    records, could_not_run = [], []
    for name in names:
        part = oracle.OUT_DIR / f".part-{os.getpid()}-{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", "0", "--out", str(part),
        ]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  check=False)
            # The child's last line is the driver's JSON; people get the table.
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stdout.flush()
            if done.returncode != 0 or not part.exists():
                could_not_run.append(name)
                continue
            records.extend(json.loads(part.read_text())["runs"])
        finally:
            part.unlink(missing_ok=True)
    if could_not_run:
        print(f"could not run: {', '.join(could_not_run)}")
    return finish(records, args.out or oracle.OUT_DIR / "results.json",
                  len(names))


def finish(records, out, expected: int) -> int:
    """Write and sum up several workloads' records; the exit status."""
    write_records(out, records)
    incorrect = [r["workload"] for r in records if not r["correct"]]
    print(f"\n{len(records)} of {expected} workloads ran; results in {out}")
    if incorrect:
        print(f"incorrect: {', '.join(incorrect)}")
    return 1 if incorrect or len(records) < expected else 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bootstrap()
    try:
        from bench import oracle
        from bench.catalog import load_contract
        from bench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: the program under test is not importable: {exc}",
              file=sys.stderr)
        return 2
    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = float(contract["run_seconds"] if args.seconds is None
                    else args.seconds)
    names = args.workload or list(WORKLOADS)
    if args.trace:
        records = measure_per_layer(names, args.seed, seconds, contract)
    elif len(names) == 1:
        records = [measure_end_to_end(names[0], args.seed, seconds, contract)]
    else:
        return run_children(names, args, seconds)
    # One traced run's records share every value but the loadgen group.
    print(render(records[0], contract))
    for record in records[1:]:
        print(render(record, contract, prefix="loadgen."))
    if len(records) > 1:
        return finish(records, args.out or oracle.OUT_DIR / "results.json",
                      len(names))
    if args.out is not None:
        write_records(args.out, records)
    print(result_line(records[0]))
    return 0


if __name__ == "__main__":
    bootstrap()
    from bench.procs import supervised

    # Not before every process this run started, at any depth, has ended.
    sys.exit(supervised(main))
