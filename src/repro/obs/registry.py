"""Metrics registry — the single observability surface of the repo.

The paper's argument is quantitative (message counts, combining factors,
per-phase times), so every subsystem reports through one registry instead
of private counters.  Four instrument families:

* **counters** — monotone integer/float totals (``inc``), e.g. packets
  sent, updates combined, positions scanned.
* **gauges** — last-value-wins measurements (``set_gauge``), e.g. the
  combining factor of the final database.
* **histograms** — summaries (count/total/min/max) of repeated
  *deterministic* observations (``observe``), e.g. simulated makespans.
* **timers** — the same summaries for *wall-clock* durations
  (``observe_seconds`` / the ``phase`` context manager).  Kept in their
  own family because wall time is the one thing a deterministic run does
  not reproduce; consumers that diff two runs compare ``snapshot()``,
  which excludes timers, against ``snapshot(timers=True)`` for humans.

Disabled mode is a shared :data:`NULL_METRICS` singleton whose methods
are all no-ops — instrumented code calls ``metrics.inc(...)``
unconditionally and pays only an attribute lookup plus an empty call when
observability is off.  Hot loops that would pay to *format* a metric name
can guard on ``metrics.enabled``.

Names are dot-separated (``parallel.combining.packets``); ``scoped()``
returns a view that prefixes every name, so a subsystem can be handed
``registry.scoped("simnet")`` and stay ignorant of where it reports.

Every name must be declared in :mod:`repro.obs.catalog`, in the family
it is used as.  The enabled registry checks a name only when it is new
to that registry (the dict-miss path, so repeat calls skip the check)
and raises :class:`ValueError` for an unknown name or a wrong-family
use (``inc`` on a gauge).  Scoped views and :meth:`merge` check the
full prefixed name the same way; :data:`NULL_METRICS` checks nothing.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .catalog import CATALOG, DYNAMIC

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


@dataclass
class HistogramSummary:
    """Streaming summary of one observation series."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class NullMetrics:
    """The zero-cost disabled registry: every instrument is a no-op."""

    enabled = False

    def inc(self, name: str, amount=1) -> None:
        pass

    def set_gauge(self, name: str, value) -> None:
        pass

    def observe(self, name: str, value) -> None:
        pass

    def observe_seconds(self, name: str, seconds: float) -> None:
        pass

    @contextmanager
    def phase(self, name: str):
        yield

    def scoped(self, prefix: str) -> "NullMetrics":
        return self

    def merge(self, snapshot: dict) -> None:
        pass

    def snapshot(self, timers: bool = False) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared disabled registry; safe because it holds no state.
NULL_METRICS = NullMetrics()

_KIND = {entry.name: entry.kind for entry in CATALOG}
_PREFIXES = {
    kind: tuple(d.prefix for d in DYNAMIC if kind in d.kinds)
    for kind in ("counter", "gauge", "histogram", "timer")
}


def _check(name: str, kind: str) -> None:
    """Raise unless the catalog declares ``name`` as a ``kind``."""
    declared = _KIND.get(name)
    if declared == kind:
        return
    if declared is not None:
        raise ValueError(
            f"metric {name!r} is cataloged as a {declared}, not a {kind}")
    if not name.startswith(_PREFIXES[kind]):
        raise ValueError(
            f"metric {name!r} is not a cataloged {kind} "
            f"(declare it in repro.obs.catalog)")


class MetricsRegistry:
    """Enabled registry; see the module docstring for the families."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramSummary] = {}
        self.timers: dict[str, HistogramSummary] = {}
        self._clock = clock

    # --------------------------------------------------------- instruments

    def inc(self, name: str, amount=1) -> None:
        try:
            self.counters[name] += amount
        except KeyError:
            _check(name, "counter")
            self.counters[name] = amount

    def set_gauge(self, name: str, value) -> None:
        if name not in self.gauges:
            _check(name, "gauge")
        self.gauges[name] = float(value)

    def observe(self, name: str, value) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            _check(name, "histogram")
            hist = self.histograms[name] = HistogramSummary()
        hist.add(value)

    def observe_seconds(self, name: str, seconds: float) -> None:
        hist = self.timers.get(name)
        if hist is None:
            _check(name, "timer")
            hist = self.timers[name] = HistogramSummary()
        hist.add(seconds)

    @contextmanager
    def phase(self, name: str):
        """Time a block of wall-clock work into the ``timers`` family."""
        if name not in self.timers:
            _check(name, "timer")  # before the block runs, not after
        t0 = self._clock()
        try:
            yield
        finally:
            self.observe_seconds(name, self._clock() - t0)

    def scoped(self, prefix: str) -> "_Scope":
        return _Scope(self, prefix)

    # -------------------------------------------------------- aggregation

    def snapshot(self, timers: bool = False) -> dict:
        """Plain-dict view of the deterministic families (sorted keys).

        ``timers=True`` adds the wall-clock family; two identical runs
        agree on everything *except* that section.
        """
        out = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
        }
        if timers:
            out["timers"] = {
                k: self.timers[k].to_dict() for k in sorted(self.timers)
            }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. a per-database registry's) in:
        counters add, gauges overwrite, histogram/timer summaries merge."""
        for name, amount in snapshot.get("counters", {}).items():
            self.inc(name, amount)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for family, kind, target in (
            ("histograms", "histogram", self.histograms),
            ("timers", "timer", self.timers),
        ):
            for name, summary in snapshot.get(family, {}).items():
                hist = target.get(name)
                if hist is None:
                    _check(name, kind)
                    hist = target[name] = HistogramSummary()
                if summary["count"]:
                    hist.count += summary["count"]
                    hist.total += summary["total"]
                    hist.min = min(hist.min, summary["min"])
                    hist.max = max(hist.max, summary["max"])


class _Scope:
    """Prefixing view over a :class:`MetricsRegistry` (same interface)."""

    enabled = True

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def inc(self, name: str, amount=1) -> None:
        self._registry.inc(self._prefix + name, amount)

    def set_gauge(self, name: str, value) -> None:
        self._registry.set_gauge(self._prefix + name, value)

    def observe(self, name: str, value) -> None:
        self._registry.observe(self._prefix + name, value)

    def observe_seconds(self, name: str, seconds: float) -> None:
        self._registry.observe_seconds(self._prefix + name, seconds)

    def phase(self, name: str):
        return self._registry.phase(self._prefix + name)

    def scoped(self, prefix: str) -> "_Scope":
        return _Scope(self._registry, self._prefix + prefix)

    def merge(self, snapshot: dict) -> None:
        prefixed = {
            family: {self._prefix + k: v for k, v in entries.items()}
            for family, entries in snapshot.items()
        }
        self._registry.merge(prefixed)
