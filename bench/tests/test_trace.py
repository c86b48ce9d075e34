"""Span self-time: duration minus the part the children cover."""

import json

import pytest

from bench.trace import Tracer, covered, durations, self_times


def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "workload": "w", "op": None}


def test_nested_spans_subtract_only_direct_children():
    spans = [
        span(0, "request", 0.0, 10.0),
        span(1, "service", 1.0, 8.0, parent=0),
        span(2, "read_block", 2.0, 5.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(3.0)  # 10 - the 7 that service covers
    assert own[1] == pytest.approx(4.0)  # 7 - the 3 that read_block covers
    assert own[2] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)  # adds up to the root


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        span(0, "scatter", 0.0, 10.0),
        span(1, "shard0", 1.0, 6.0, parent=0),
        span(2, "shard1", 4.0, 9.0, parent=0),   # overlaps shard0 on [4, 6]
        span(3, "late", 9.5, 12.0, parent=0),    # runs past the parent
    ]
    own = self_times(spans)
    # union of children inside [0, 10] = [1, 9] + [9.5, 10] = 8.5
    assert own[0] == pytest.approx(1.5)


def test_covered_handles_disjoint_touching_and_contained_intervals():
    assert covered(0, 10, []) == 0.0
    assert covered(0, 10, [(2, 3), (3, 4)]) == pytest.approx(2.0)
    assert covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8.0)
    assert covered(0, 10, [(-5, 20)]) == pytest.approx(10.0)


def test_tracer_records_parent_op_and_writes_json(tmp_path):
    tracer = Tracer("serve-hot")
    with tracer.span("request", op=7) as outer:
        with tracer.span("decode") as inner:
            pass
        tracer.add("wire", outer["start"], outer["start"], op=7)
    assert inner["parent"] == outer["id"]
    assert inner["op"] == 7  # inherited from the enclosing span
    assert tracer.spans[2]["parent"] == outer["id"]
    assert outer["end"] >= inner["end"] >= inner["start"] >= outer["start"]
    totals = tracer.self_seconds()
    assert set(totals) == {"request", "decode", "wire"}
    assert durations(tracer.spans, "decode") == [inner["end"] - inner["start"]]
    path = tmp_path / "out" / "trace.json"
    tracer.write(path, {"seed": 3})
    payload = json.loads(path.read_text())
    assert payload["schema"] == "bench/trace/v1" and payload["seed"] == 3
    assert {"id", "name", "start", "end", "parent", "workload", "op"} == set(
        payload["spans"][0])


def test_self_seconds_under_one_subtree():
    tracer = Tracer("w")
    with tracer.span("first"):
        with tracer.span("leaf"):
            pass
    with tracer.span("second") as second:
        with tracer.span("leaf"):
            pass
    under = tracer.self_seconds(under=second["id"])
    assert set(under) == {"second", "leaf"}
    assert under["leaf"] < tracer.self_seconds()["leaf"]
