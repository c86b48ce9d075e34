"""Unit tests for the metrics registry and run manifest."""

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    HistogramSummary,
    MetricsRegistry,
    NullMetrics,
    RunManifest,
)
from repro.obs.manifest import SCHEMA


class TestRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("serve.probes")
        m.inc("serve.probes", 4)
        m.inc("serve.batches", 2)
        assert m.counters == {"serve.probes": 5, "serve.batches": 2}

    def test_gauges_overwrite(self):
        m = MetricsRegistry()
        m.set_gauge("parallel.n_procs", 1)
        m.set_gauge("parallel.n_procs", 2.5)
        assert m.gauges == {"parallel.n_procs": 2.5}

    def test_histograms_summarize(self):
        m = MetricsRegistry()
        for v in (3, 1, 2):
            m.observe("parallel.db_positions", v)
        h = m.histograms["parallel.db_positions"]
        assert (h.count, h.total, h.min, h.max) == (3, 6.0, 1.0, 3.0)
        assert h.mean == 2.0

    def test_phase_times_into_timers(self):
        ticks = iter([10.0, 10.5])
        m = MetricsRegistry(clock=lambda: next(ticks))
        timer = "sequential.solve_database"
        with m.phase(timer):
            pass
        assert m.timers[timer].total == pytest.approx(0.5)
        # Timers stay out of the deterministic snapshot by default.
        assert "timers" not in m.snapshot()
        assert m.snapshot(timers=True)["timers"][timer]["count"] == 1

    def test_scoped_prefixes_every_family(self):
        m = MetricsRegistry()
        s = m.scoped("parallel")
        s.inc("packets_sent")
        s.set_gauge("combining_factor", 0.5)
        s.observe("makespan_seconds", 1.0)
        s.scoped("combining").inc("packets")
        assert m.counters == {"parallel.packets_sent": 1,
                              "parallel.combining.packets": 1}
        assert m.gauges == {"parallel.combining_factor": 0.5}
        assert "parallel.makespan_seconds" in m.histograms

    def test_snapshot_sorted_and_plain(self):
        m = MetricsRegistry()
        m.inc("serve.probes")
        m.inc("serve.batches")
        snap = m.snapshot()
        assert list(snap["counters"]) == ["serve.batches", "serve.probes"]
        json.dumps(snap)  # JSON-serializable

    def test_merge_folds_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("parallel.packets_sent", 1)
        b.inc("parallel.packets_sent", 2)
        b.set_gauge("parallel.combining_factor", 7)
        b.observe("parallel.makespan_seconds", 4)
        b.observe("parallel.makespan_seconds", 6)
        a.merge(b.snapshot())
        assert a.counters["parallel.packets_sent"] == 3
        assert a.gauges["parallel.combining_factor"] == 7.0
        assert a.histograms["parallel.makespan_seconds"].count == 2
        assert a.histograms["parallel.makespan_seconds"].min == 4.0

    def test_empty_histogram_serializes_finite(self):
        h = HistogramSummary()
        d = h.to_dict()
        assert d["min"] == 0.0 and d["max"] == 0.0 and d["mean"] == 0.0


class TestCatalogCheck:
    """Every name is checked against repro.obs.catalog on first use."""

    @pytest.mark.parametrize("emit, family", [
        (lambda m: m.inc("serve.probe"), "counter"),
        (lambda m: m.set_gauge("serve.cache.resident_byte", 1), "gauge"),
        (lambda m: m.observe("parallel.makespan", 1.0), "histogram"),
        (lambda m: m.observe_seconds("multiproc.scan_second", 1.0), "timer"),
        (lambda m: m.phase("sequential.solve_db").__enter__(), "timer"),
        (lambda m: m.inc("aserve.server.ops.probe"), "counter"),
        (lambda m: m.merge({"histograms": {"parallel.makespan": {}}}),
         "histogram"),
        (lambda m: m.merge({"timers": {"multiproc.scan": {}}}), "timer"),
    ])
    def test_unknown_name_raises(self, emit, family):
        with pytest.raises(ValueError, match=f"not a cataloged {family}"):
            emit(MetricsRegistry())

    def test_dynamic_family_accepts_any_tail(self):
        m = MetricsRegistry()
        m.inc("aserve.server.op.probe_many")
        m.inc("simnet.sent.UPDATE", 3)
        assert m.counters == {"aserve.server.op.probe_many": 1,
                              "simnet.sent.UPDATE": 3}

    def test_wrong_family_raises(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError, match="cataloged as a gauge"):
            m.inc("parallel.n_procs")
        with pytest.raises(ValueError, match="cataloged as a counter"):
            m.observe("parallel.packets_sent", 1)
        with pytest.raises(ValueError, match="not a cataloged histogram"):
            m.observe("simnet.sent.UPDATE", 1)
        assert m.snapshot() == {"counters": {}, "gauges": {},
                                "histograms": {}}

    def test_phase_checks_before_the_block_runs(self):
        ran = []
        with pytest.raises(ValueError, match="sequential.build"):
            with MetricsRegistry().phase("sequential.build"):
                ran.append(True)
        assert ran == []

    def test_scoped_view_checks_the_full_name(self):
        m = MetricsRegistry()
        m.scoped("serve.cache").inc("hits")
        with pytest.raises(ValueError, match="'serve.hits'"):
            m.scoped("serve").inc("hits")
        with pytest.raises(ValueError, match="'serve.cache.probes'"):
            m.scoped("serve").scoped("cache").inc("probes")
        with pytest.raises(ValueError, match="'serve.cache.x'"):
            m.scoped("serve.cache").merge({"counters": {"x": 1}})
        assert m.counters == {"serve.cache.hits": 1}


class TestNullMetrics:
    def test_all_instruments_are_noops(self):
        n = NullMetrics()
        n.inc("x")
        n.set_gauge("x", 1)
        n.observe("x", 1)
        n.observe_seconds("x", 1)
        with n.phase("x"):
            pass
        n.merge({"counters": {"x": 1}})
        assert n.scoped("y") is n
        assert not n.enabled
        assert n.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_shared_singleton_disabled(self):
        assert NULL_METRICS.enabled is False
        # The disabled registry checks no name, known or not.
        NULL_METRICS.inc("no.such.counter")
        NULL_METRICS.set_gauge("parallel.packets_sent", 1)
        assert NULL_METRICS.snapshot()["counters"] == {}


class TestRunManifest:
    def _registry(self):
        m = MetricsRegistry()
        m.inc("parallel.packets_sent", 10)
        m.set_gauge("parallel.combining_factor", 6.5)
        m.observe("parallel.makespan_seconds", 2.0)
        m.observe_seconds("parallel.host_wall_seconds", 0.1)
        return m

    def test_roundtrip(self, tmp_path):
        man = RunManifest.from_registry(
            self._registry(),
            game="awari",
            command="solve",
            rules="must_feed=True",
            config={"stones": 4, "procs": 4},
            seed=0,
        )
        path = man.save(tmp_path / "run.json")
        back = RunManifest.load(path)
        assert back.game == "awari"
        assert back.config == {"stones": 4, "procs": 4}
        assert back.metrics == man.metrics
        assert back.timers["parallel.host_wall_seconds"]["count"] == 1

    def test_schema_is_stamped(self, tmp_path):
        man = RunManifest.from_registry(self._registry(), game="awari")
        path = man.save(tmp_path / "run.json")
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/v9"}))
        with pytest.raises(ValueError, match="schema"):
            RunManifest.load(path)

    def test_timers_separated_from_metrics(self):
        man = RunManifest.from_registry(self._registry(), game="awari")
        assert "timers" not in man.metrics
        assert "parallel.host_wall_seconds" in man.timers
        assert "parallel.packets_sent" in man.metrics["counters"]
