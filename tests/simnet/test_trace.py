"""Tracer tests."""

import numpy as np
import pytest

from repro.obs import NULL_METRICS, MetricsRegistry
from repro.simnet.rts import Actor, SPMDRuntime
from repro.simnet.trace import Tracer


class Chain(Actor):
    """0 sends to 1, 1 to 2, ... last broadcasts DONE."""

    def on_start(self, ctx):
        if ctx.rank == 0:
            ctx.send(1, "HOP", size_bytes=32)

    def on_message(self, ctx, msg):
        if msg.tag == "HOP":
            nxt = ctx.rank + 1
            if nxt < ctx.size:
                ctx.send(nxt, "HOP", size_bytes=32)
            else:
                ctx.broadcast("DONE", size_bytes=16)


def run_traced(n=4, max_events=10_000, metrics=NULL_METRICS):
    actors = [Chain() for _ in range(n)]
    rt = SPMDRuntime(actors)
    tracer = Tracer(max_events=max_events, metrics=metrics).attach(rt)
    rt.run()
    return tracer


class TestTracer:
    def test_events_recorded_in_order(self):
        tracer = run_traced()
        times = [e.time for e in tracer.events]
        assert times == sorted(times)
        # Each hop is a send + a delivery.
        sends = [e for e in tracer.events if e.kind == "send"]
        assert len(sends) == 4  # 3 hops + 1 broadcast

    def test_flow_matrix(self):
        tracer = run_traced()
        flow = tracer.flow_matrix()
        assert flow[0, 1] == 1
        assert flow[1, 2] == 1
        assert flow[2, 3] == 1
        # Broadcast from 3 counts toward everyone else.
        assert flow[3, 0] == flow[3, 1] == flow[3, 2] == 1
        assert flow[3, 3] == 0

    def test_tag_counts(self):
        tracer = run_traced()
        assert tracer.tag_counts == {"HOP": 3, "DONE": 1}

    def test_counts_mirrored_into_registry(self):
        registry = MetricsRegistry()
        run_traced(metrics=registry)
        # The broadcast DONE is one send and three deliveries.
        assert registry.counters == {
            "trace.send.HOP": 3, "trace.deliver.HOP": 3,
            "trace.send.DONE": 1, "trace.deliver.DONE": 3,
        }

    def test_event_cap(self):
        tracer = run_traced(max_events=2)
        assert len(tracer.events) == 2
        assert tracer.dropped > 0
        assert "more events" in tracer.render_log(limit=2)

    def test_renderers_produce_text(self):
        tracer = run_traced()
        assert "HOP" in tracer.render_log()
        assert "DONE" in tracer.render_tags()
        assert "0" in tracer.render_flow()

    def test_double_attach_rejected(self):
        rt = SPMDRuntime([Chain(), Chain()])
        tracer = Tracer().attach(rt)
        with pytest.raises(RuntimeError):
            tracer.attach(rt)

    def test_unattached_flow_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().flow_matrix()

    def test_tracing_does_not_change_results(self):
        """A traced parallel solve must equal an untraced one."""
        from repro.core.graph import build_database_graph
        from repro.core.parallel.driver import ParallelConfig
        from repro.core.parallel.worker import RAWorker
        from repro.core.partition import make_partition
        from repro.core.sequential import SequentialSolver
        from repro.games.awari_db import AwariCaptureGame

        game = AwariCaptureGame()
        values, _ = SequentialSolver(game).solve(4)
        graph = build_database_graph(game, 4, {n: values[n] for n in range(4)})
        partition = make_partition("cyclic", graph.size, 3)
        cfg = ParallelConfig()

        def run(traced):
            workers = [
                RAWorker(r, graph, partition, 4, cfg) for r in range(3)
            ]
            rt = SPMDRuntime(workers, costs=cfg.costs)
            if traced:
                Tracer().attach(rt)
            rt.run()
            out = np.zeros(graph.size, dtype=np.int16)
            for w in workers:
                idx, vals = w.local_values()
                out[idx] = vals
            return out

        np.testing.assert_array_equal(run(True), run(False))
        np.testing.assert_array_equal(run(True), values[4])
