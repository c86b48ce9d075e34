"""BENCHMARK.json, the harness and the result record agree, and stay
inside the limits the driver's contract sets."""

import json
import re

import pytest

from bench import catalog, run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return catalog.load_contract()


def test_contract_shape_and_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert contract["command"][0] == "python3"
    assert all(part.startswith("bench/") for part in contract["command"][1:])
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert len(catalog.BENCHMARK_PATH.read_bytes()) <= 64 * 1024
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_time_is_gated_with_the_largest_bound(contract):
    by_name = {m["name"]: m for m in contract["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_every_bounded_metric_has_an_absolute_floor(contract):
    assert set(catalog.FLOORS) == {m["name"] for m in contract["end_to_end"]}


def test_the_harness_knows_exactly_the_contracts_workloads(contract):
    from bench.workloads import WORKLOADS

    assert list(WORKLOADS) == [w["name"] for w in contract["workloads"]]


def test_result_line_has_exactly_the_contracts_keys():
    record = {
        "workload": "serve-hot", "seed": 1, "seconds": 10.0, "trace": 0,
        "correct": True, "attempted": 12, "failed": 0, "problems": [],
        "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
        "notes": {"fixture_s": 0.0, "latency_ms": {"n": 12, "median": 1.5}},
        "host": {"calib_ms": 200.0},
    }
    line = run.result_line(record)
    assert "\n" not in line
    parsed = json.loads(line)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["metrics"]["setup_s"] == {"value": 0.5, "unit": "s"}
    text = run.render(record, catalog.load_contract())
    assert "setup_s" in text and "may worsen 25%" in text and "CORRECT" in text


def test_result_file_round_trips_through_compare(tmp_path):
    from bench import compare

    record = {
        "workload": "solve-seq", "seed": 1, "seconds": 10.0, "trace": 0,
        "correct": True, "attempted": 7, "failed": 0, "problems": [],
        "metrics": {"op_p50_ms": {"value": 1400.0, "unit": "ms"}},
        "notes": {}, "host": {"calib_ms": 200.0},
    }
    path = tmp_path / "results.json"
    run.write_records(path, [record])
    payload = json.loads(path.read_text())
    assert payload["schema"] == run.RESULT_SCHEMA
    assert compare.load_runs([tmp_path]) == [record]
    (tmp_path / "other.json").write_text("{}")
    with pytest.raises(ValueError):
        compare.load_runs([tmp_path / "other.json"])
