"""Unit tests for the discrete-event engine and the Ethernet model."""

import pytest

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.ethernet import Ethernet, EthernetConfig


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_in_scheduling_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, log.append, name)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(0.5, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 1.5)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=100)

    @pytest.mark.parametrize("n", [1, 3])
    def test_max_events_is_inclusive(self, n):
        """A run that needs exactly ``max_events`` events finishes; one
        event fewer is a livelock, reported with events still queued."""

        def fresh():
            sim = Simulator()
            for _ in range(n):
                sim.schedule(1.0, lambda: None)
            return sim

        assert fresh().run(max_events=n) == n
        sim = fresh()
        with pytest.raises(SimulationError, match=f"max_events={n - 1}"):
            sim.run(max_events=n - 1)
        assert sim.events_processed == n - 1
        assert sim.pending == 1

    def test_event_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 5
        assert sim.events_processed == 5


class TestEthernet:
    def _net(self, n=4, **kw):
        sim = Simulator()
        net = Ethernet(sim, n, EthernetConfig(**kw))
        inbox = []
        net.attach(lambda dst, m: inbox.append((sim.now, dst, m)))
        return sim, net, inbox

    def test_frame_time_includes_overhead(self):
        cfg = EthernetConfig(
            bandwidth_bps=10e6, frame_overhead_bytes=38, contention_efficiency=1.0
        )
        # 1000 payload + 38 overhead = 1038 bytes at 10 Mbit/s.
        assert cfg.frame_time(1000) == pytest.approx(1038 * 8 / 10e6)

    def test_min_frame_padding(self):
        cfg = EthernetConfig(contention_efficiency=1.0)
        assert cfg.frame_time(1) == cfg.frame_time(46)

    def test_unicast_delivery(self):
        sim, net, inbox = self._net()
        net.transmit(0, 2, 100, "hello")
        sim.run()
        assert len(inbox) == 1
        _, dst, msg = inbox[0]
        assert dst == 2 and msg == "hello"

    def test_broadcast_reaches_everyone_but_sender(self):
        sim, net, inbox = self._net(n=5)
        net.transmit(1, -1, 64, "bcast")
        sim.run()
        assert sorted(dst for _, dst, _ in inbox) == [0, 2, 3, 4]
        # One transmission, not five.
        assert net.stats.frames == 1

    def test_shared_medium_serializes(self):
        sim, net, inbox = self._net()
        # Two 1500-byte messages requested at t=0 must not overlap; the
        # second finds the medium busy and also pays the contention slots.
        net.transmit(0, 1, 1500, "m1")
        net.transmit(2, 3, 1500, "m2")
        sim.run()
        t1, t2 = inbox[0][0], inbox[1][0]
        frame = net.config.frame_time(1500)
        assert t2 - t1 == pytest.approx(
            frame + net.config.contention_slot_penalty_s
        )
        assert net.stats.contended_frames == 1

    def test_idle_medium_has_no_contention_penalty(self):
        sim, net, inbox = self._net()
        net.transmit(0, 1, 100, "m1")
        sim.run()
        net.transmit(0, 1, 100, "m2")
        sim.run()
        assert net.stats.contended_frames == 0
        assert net.stats.contention_seconds == 0.0

    def test_large_message_fragments(self):
        sim, net, inbox = self._net()
        net.transmit(0, 1, 4000, "big")
        sim.run()
        assert net.stats.frames == 3  # 1500 + 1500 + 1000
        assert len(inbox) == 1  # delivered once, on the last fragment

    def test_fifo_per_pair(self):
        sim, net, inbox = self._net()
        for i in range(10):
            net.transmit(0, 1, 50, i)
        sim.run()
        assert [m for _, _, m in inbox] == list(range(10))

    def test_utilization_bounded(self):
        sim, net, _ = self._net()
        for _ in range(20):
            net.transmit(0, 1, 1500, "x")
        sim.run()
        assert 0.9 < net.utilization(sim.now) <= 1.0

    def test_transmit_without_callback_raises(self):
        sim = Simulator()
        net = Ethernet(sim, 2)
        with pytest.raises(RuntimeError):
            net.transmit(0, 1, 10, "x")

    def test_byte_accounting(self):
        sim, net, _ = self._net()
        net.transmit(0, 1, 100, "x")
        sim.run()
        assert net.stats.payload_bytes == 100
        assert net.stats.wire_bytes == 100 + 38
