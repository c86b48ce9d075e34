"""compare.py's verdicts on synthetic results."""

import json

import pytest

from bench import catalog, compare, run

HOST = {"nproc": 2, "cpu_model": "cpu", "machine": "x86_64", "python": "3.11",
        "numpy": "2.0", "calib_ms": 200.0}
CONTRACT = catalog.load_contract()


def runs(values, name="op_p50_ms", unit="ms", workload="serve-hot", trace=0,
         seeds=None, host=HOST, failed=0):
    return [
        {"workload": workload, "seed": (seeds or range(len(values)))[i],
         "seconds": 10.0, "trace": trace, "correct": failed == 0,
         "attempted": 100, "failed": failed, "problems": [],
         "metrics": {name: {"value": v, "unit": unit}}, "notes": {},
         "host": dict(host)}
        for i, v in enumerate(values)
    ]


def only_verdict(base, new):
    rows = compare.compare(base, new, CONTRACT)
    assert len(rows) == 1
    return rows[0][-1]


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
BOUND = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}


def test_same_numbers_are_within_bound():
    assert only_verdict(runs(STEADY), runs(STEADY)) == "within bound"


def test_median_past_the_bound_is_worse():
    bound = BOUND["op_p50_ms"]
    slower = [v * (1 + bound + 0.05) for v in STEADY]
    assert only_verdict(runs(STEADY), runs(slower)) == "worse"
    slightly = [v * (1 + bound / 2) for v in STEADY]
    assert only_verdict(runs(STEADY), runs(slightly)) == "within bound"


def test_direction_follows_the_metric():
    name, unit = "positions_per_s", "1/s"
    base = runs([v * 1000 for v in STEADY], name, unit)
    fewer = runs([v * 1000 * (1 - BOUND[name] - 0.05) for v in STEADY],
                 name, unit)
    more = runs([v * 1200 for v in STEADY], name, unit)
    assert only_verdict(base, fewer) == "worse"
    assert only_verdict(base, more) == "better"


def test_every_new_run_beating_every_base_run_is_better_despite_spread():
    noisy = [1.0, 1.3, 0.9, 1.4, 1.1, 0.8, 1.2, 1.0, 1.5, 0.9]
    fast = [0.5, 0.6, 0.4, 0.7, 0.5, 0.6, 0.4, 0.5, 0.6, 0.7]
    assert only_verdict(runs(noisy), runs(fast)) == "better"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [100.0, 130.0, 90.0, 140.0, 110.0, 80.0, 120.0, 100.0, 150.0, 90.0]
    assert only_verdict(runs(noisy), runs([v * 1.02 for v in noisy])) == "unresolved"


def test_change_below_the_absolute_floor_is_not_a_regression():
    # setup_s: +40 % but only 0.04 s — under the 0.25 s floor.
    base = runs([0.10] * 5, "setup_s", "s")
    new = runs([0.14] * 5, "setup_s", "s")
    assert only_verdict(base, new) == "within bound"
    assert only_verdict(runs([1.0] * 5, "setup_s", "s"),
                        runs([1.4] * 5, "setup_s", "s")) == "worse"


def test_counts_must_repeat_exactly_per_seed():
    name, unit = "core.kernel.rounds", "count"
    base = runs([700, 700], name, unit, "solve-seq", 1, seeds=[1, 2])
    same = runs([700, 700], name, unit, "solve-seq", 1, seeds=[1, 2])
    off = runs([700, 701], name, unit, "solve-seq", 1, seeds=[1, 2])
    elsewhere = runs([700], name, unit, "solve-seq", 1, seeds=[9])
    assert only_verdict(base, same) == "identical"
    assert only_verdict(base, off) == "differs"
    assert only_verdict(base, elsewhere) == "no common seed"


def test_unbounded_layer_timings_get_a_change_but_no_verdict():
    rows = compare.compare(runs([5.0], "obs.inc_ns", "ns", trace=1),
                           runs([9.0], "obs.inc_ns", "ns", trace=1), CONTRACT)
    assert rows[0][-1] == "" and rows[0][-2] == pytest.approx(0.8)


def test_failed_operations_in_the_new_runs_are_worse():
    rows = compare.compare(runs(STEADY), runs(STEADY, failed=2), CONTRACT)
    assert rows[-1][1] == "failed operations" and rows[-1][-1] == "worse"


def test_traced_and_untraced_runs_are_never_mixed():
    rows = compare.compare(runs(STEADY, trace=0), runs(STEADY, trace=1), CONTRACT)
    assert rows == []


def test_hosts_that_differ_are_refused():
    other_cpu = dict(HOST, cpu_model="another cpu")
    assert compare.comparability(runs(STEADY), runs(STEADY, host=other_cpu))
    assert not compare.comparability(runs(STEADY), runs(STEADY))


def test_a_workload_measured_in_a_loud_stretch_gets_no_timing_verdict():
    slower_box = dict(HOST, calib_ms=230.0)
    close_enough = dict(HOST, calib_ms=215.0)
    slow = [v * 1.5 for v in STEADY]
    assert only_verdict(runs(STEADY), runs(slow, host=slower_box)) == "host differs"
    assert only_verdict(runs(STEADY), runs(slow, host=close_enough)) == "worse"
    # Only the workload whose runs fell into the loud stretch is withheld.
    rows = compare.compare(
        runs(STEADY) + runs(STEADY, workload="serve-cold"),
        runs(STEADY) + runs(slow, workload="serve-cold", host=slower_box),
        CONTRACT)
    assert {row[0]: row[-1] for row in rows} == {
        "serve-hot": "within bound", "serve-cold": "host differs"}
    # Counts do not depend on the host's speed and are still compared.
    name, unit = "core.kernel.rounds", "count"
    assert only_verdict(runs([700], name, unit, trace=1, seeds=[1]),
                        runs([700], name, unit, trace=1, seeds=[1],
                             host=slower_box)) == "identical"


def test_command_line_exit_codes(tmp_path, capsys):
    def write(name, records):
        path = tmp_path / name
        run.write_records(path, records)
        return str(path)

    base = write("base.json", runs(STEADY))
    same = write("same.json", runs(STEADY))
    slow = write("slow.json", runs([v * 1.5 for v in STEADY]))
    alien = write("alien.json", runs(STEADY, host=dict(HOST, nproc=64)))
    loud = write("loud.json", runs(STEADY, host=dict(HOST, calib_ms=300.0)))
    assert compare.main(["--base", base, "--new", same]) == 0
    assert "within bound" in capsys.readouterr().out
    assert compare.main(["--base", base, "--new", slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(["--base", base, "--new", alien]) == 2
    assert "refusing to compare" in capsys.readouterr().err
    assert compare.main(["--base", base, "--new", loud]) == 2
    assert "host differs" in capsys.readouterr().out
    assert json.loads((tmp_path / "base.json").read_text())["runs"]
