"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``{id, name, start, end, parent, workload, op}``: ``name`` is
the layer (``core.kernel.solve``), ``parent`` the id of the span that
caused it, ``workload`` the workload whose inputs were being replayed
(``None`` for a probe that belongs to none), ``op`` the operation
(request or solve number) it belongs to.  Spans stay in memory and are
written once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its direct children cover — overlapping children are counted
once, children are clipped to the parent.  Summed over a trace, the self
times of all spans add up to the duration of the roots, which is what
lets a per-layer table be compared with an end-to-end number.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "self_times", "covered", "duration", "durations"]

SCHEMA = "bench/trace/v1"


def duration(span: dict) -> float:
    """Seconds between a closed span's start and end."""
    return span["end"] - span["start"]


def durations(spans, name: str) -> list:
    """The duration of every span called ``name``."""
    return [duration(s) for s in spans if s["name"] == name]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """``{span id: self seconds}`` for a list of span dicts."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: duration(span)
        - covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


class Tracer:
    """In-memory span recorder for one traced run.  ``workload`` is
    stamped on every span opened while it is set."""

    def __init__(self, workload: str | None = None):
        self.workload = workload
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, op=None):
        """Record the enclosed block as a child of the innermost open span."""
        record = self._open(name, op)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _open(self, name, op) -> dict:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "workload": self.workload,
            "op": op,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def add(self, name: str, start: float, end: float, op=None) -> None:
        """Record a span from timestamps taken elsewhere (the request loop
        already reads the clock once per request)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": parent, "workload": self.workload, "op": op,
        })

    # ------------------------------------------------------------ queries

    def self_seconds(self, under: int | None = None) -> dict:
        """``{name: summed self seconds}``; ``under`` restricts the sum
        to the subtree of one span id."""
        own = self_times(self.spans)
        keep = None
        if under is not None:
            keep = {under}
            for span in self.spans:  # ids grow parent-first
                if span["parent"] in keep:
                    keep.add(span["id"])
        totals: dict = {}
        for span in self.spans:
            if keep is None or span["id"] in keep:
                totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
        return totals

    def write(self, path, extra: dict | None = None) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": SCHEMA, **(extra or {}), "spans": self.spans}
        path.write_text(json.dumps(payload))
