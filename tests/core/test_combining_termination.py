"""Unit tests: message-combining buffers and Safra termination state."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combining import (
    UPDATE_BYTES,
    CombiningBuffers,
    CombiningStats,
    UpdatePacket,
)
from repro.core.termination import BLACK, WHITE, SafraState, Token


class TestCombiningBuffers:
    def test_buffer_fills_at_capacity(self):
        buf = CombiningBuffers(n_dest=4, capacity=3)
        ready = buf.append(
            np.array([1, 1, 1, 2]), np.arange(4), np.zeros(4, dtype=np.uint8)
        )
        assert len(ready) == 1
        dest, packet = ready[0]
        assert dest == 1
        assert packet.n_updates == 3
        assert buf.pending(2) == 1

    def test_packet_sizes(self):
        buf = CombiningBuffers(n_dest=2, capacity=2)
        ready = buf.append(
            np.array([1, 1]), np.array([10, 20]), np.zeros(2, dtype=np.uint8)
        )
        assert ready[0][1].size_bytes == 2 * UPDATE_BYTES

    def test_order_preserved_per_destination(self):
        buf = CombiningBuffers(n_dest=2, capacity=100)
        buf.append([1, 1], [5, 7], [0, 1])
        buf.append([1], [9], [0])
        ready = buf.flush_all()
        (dest, packet), = ready
        assert dest == 1
        assert packet.positions == [5, 7, 9]
        assert packet.kinds == [0, 1, 0]
        assert all(type(x) is int for x in packet.positions + packet.kinds)

    def test_oversize_batch_splits_into_multiple_packets(self):
        buf = CombiningBuffers(n_dest=2, capacity=10)
        ready = buf.append(
            np.full(25, 1), np.arange(25), np.zeros(25, dtype=np.uint8)
        )
        assert [p.n_updates for _, p in ready] == [10, 10]
        assert buf.pending(1) == 5

    def test_flush_all_drains_everything(self):
        buf = CombiningBuffers(n_dest=3, capacity=100)
        buf.append(np.array([0, 1, 2]), np.arange(3), np.zeros(3, dtype=np.uint8))
        ready = buf.flush_all()
        assert len(ready) == 3
        assert buf.total_pending == 0

    def test_capacity_one_is_naive_mode(self):
        buf = CombiningBuffers(n_dest=2, capacity=1)
        ready = buf.append(
            np.array([1, 1, 1]), np.arange(3), np.zeros(3, dtype=np.uint8)
        )
        assert len(ready) == 3
        assert all(p.n_updates == 1 for _, p in ready)

    def test_stats_combining_factor(self):
        buf = CombiningBuffers(n_dest=2, capacity=4)
        buf.append(np.full(8, 1), np.arange(8), np.zeros(8, dtype=np.uint8))
        assert buf.stats.combining_factor == pytest.approx(4.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CombiningBuffers(n_dest=0, capacity=1)
        with pytest.raises(ValueError):
            CombiningBuffers(n_dest=1, capacity=0)

    def test_rejects_mismatched_arrays(self):
        buf = CombiningBuffers(n_dest=2, capacity=4)
        with pytest.raises(ValueError):
            buf.append(np.array([1]), np.array([1, 2]), np.zeros(2, dtype=np.uint8))

    @given(
        st.lists(
            st.one_of(
                st.lists(st.integers(0, 7), min_size=0, max_size=120),
                st.just("flush"),
            ),
            max_size=8,
        ),
        st.integers(1, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_update_lost_or_duplicated(self, ops, capacity):
        """Appends interleaved with flushes ship exactly the packets of a
        list-of-arrays model — same destinations, contents, order and
        statistics — so every update leaves exactly once, in
        per-destination FIFO order."""
        buf = CombiningBuffers(n_dest=8, capacity=capacity)
        model = _ListOfArraysBuffers(n_dest=8, capacity=capacity)
        got, want, sent = [], [], 0
        for op in ops + ["flush"]:
            if op == "flush":
                got += buf.flush_all()
                want += model.flush_all()
                continue
            dests = np.asarray(op, dtype=np.int64)
            positions = np.arange(sent, sent + dests.shape[0], dtype=np.int64)
            kinds = (positions * 7 % 5).astype(np.uint8)
            sent += dests.shape[0]
            # The worker appends lists of Python ints; so does this test.
            got += buf.append(dests.tolist(), positions.tolist(), kinds.tolist())
            want += model.append(dests, positions, kinds)
            assert buf.total_pending == sum(model.counts)
        assert [(d, p.positions, p.kinds) for d, p in got] == [
            (d, p.positions.tolist(), p.kinds.tolist()) for d, p in want
        ]
        assert all(
            type(x) is int for _, p in got for x in p.positions + p.kinds
        )
        assert buf.stats == model.stats
        assert buf.total_pending == 0
        assert sorted(u for _, p in got for u in p.positions) == list(range(sent))

    def test_huge_capacity_allocates_only_what_is_buffered(self):
        tracemalloc.start()
        try:
            buf = CombiningBuffers(n_dest=64, capacity=10**6)
            buf.append(np.arange(1000) % 64, np.arange(1000), np.zeros(1000, dtype=np.uint8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # 64 x 10^6 x 9 bytes up front would be 576 MB
        assert buf.total_pending == 1000
        assert buf.flush_all()[0][1].n_updates == 16


class _ListOfArraysBuffers:
    """Reference model: each destination's pending updates as a list of
    arrays, concatenated and cut whenever a packet leaves."""

    def __init__(self, n_dest, capacity):
        self.capacity = capacity
        self.positions = [[] for _ in range(n_dest)]
        self.kinds = [[] for _ in range(n_dest)]
        self.counts = [0] * n_dest
        self.stats = CombiningStats()

    def append(self, dest_of, positions, kinds):
        self.stats.updates += len(dest_of)
        ready = []
        for dest in sorted(set(dest_of.tolist())):
            sel = dest_of == dest
            self.positions[dest].append(positions[sel])
            self.kinds[dest].append(kinds[sel])
            self.counts[dest] += int(sel.sum())
            while self.counts[dest] >= self.capacity:
                ready.append((dest, self._pop(dest)))
                self.stats.capacity_flushes += 1
        return ready

    def _pop(self, dest):
        pos = np.concatenate(self.positions[dest])
        kin = np.concatenate(self.kinds[dest])
        take = min(self.capacity, pos.shape[0])
        self.positions[dest], self.kinds[dest] = [pos[take:]], [kin[take:]]
        self.counts[dest] = pos.shape[0] - take
        self.stats.packets += 1
        return UpdatePacket(positions=pos[:take], kinds=kin[:take])

    def flush_all(self):
        ready = []
        for dest in range(len(self.counts)):
            while self.counts[dest] > 0:
                ready.append((dest, self._pop(dest)))
                self.stats.forced_flushes += 1
        return ready


class TestSafra:
    def test_clean_ring_terminates(self):
        """No traffic at all: one round proves termination."""
        states = [SafraState(r, 4) for r in range(4)]
        token = states[0].start_round()
        for r in range(1, 4):
            token = states[r].forward(token)
        assert states[0].coordinator_check(token)

    def test_in_flight_message_defers_termination(self):
        states = [SafraState(r, 3) for r in range(3)]
        states[1].on_app_send()  # message still in flight
        token = states[0].start_round()
        token = states[1].forward(token)
        token = states[2].forward(token)
        assert not states[0].coordinator_check(token)

    def _round(self, states):
        token = states[0].start_round()
        for r in range(1, len(states)):
            token = states[r].forward(token)
        return states[0].coordinator_check(token)

    def test_traffic_behind_the_token_never_terminates_early(self):
        """The classic race: the token passes worker 1, then a message
        flows 2 -> 1 behind its back.  Safra must refuse to terminate
        until a full clean round has seen the quiet system."""
        states = [SafraState(r, 3) for r in range(3)]
        token = states[0].start_round()
        token = states[1].forward(token)
        states[2].on_app_send()
        states[1].on_app_receive()
        token = states[2].forward(token)
        # Counters are skewed (1's receive happened after it forwarded).
        assert not states[0].coordinator_check(token)
        # Next round: counters now sum to zero, but 1 is black.
        assert not self._round(states)
        # Third round: all white, all quiet — terminate.
        assert self._round(states)

    def test_balanced_quiet_system_terminates(self):
        states = [SafraState(r, 3) for r in range(3)]
        states[0].on_app_send()
        states[1].on_app_receive()
        # At most two rounds are needed once the system is quiet.
        first = self._round(states)
        second = self._round(states)
        assert first or second

    def test_hold_and_release(self):
        s = SafraState(1, 4)
        t = Token()
        s.hold(t)
        with pytest.raises(RuntimeError):
            s.hold(Token())
        assert s.release() is t
        assert s.release() is None

    def test_only_coordinator_starts_and_checks(self):
        s = SafraState(2, 4)
        with pytest.raises(RuntimeError):
            s.start_round()
        with pytest.raises(RuntimeError):
            s.coordinator_check(Token())
        with pytest.raises(RuntimeError):
            SafraState(0, 4).forward(Token())

    def test_reset_clears_state(self):
        s = SafraState(1, 4)
        s.on_app_send()
        s.on_app_receive()
        s.hold(Token())
        s.reset()
        assert s.counter == 0
        assert s.color == WHITE
        assert s.held_token is None

    def test_ring_order(self):
        assert SafraState(3, 4).next_rank() == 0
        assert SafraState(0, 4).next_rank() == 1

    def test_receive_turns_black(self):
        s = SafraState(1, 3)
        assert s.color == WHITE
        s.on_app_receive()
        assert s.color == BLACK
