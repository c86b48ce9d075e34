"""The end-to-end statistics and the closed loop's accounting, on fakes."""

from types import SimpleNamespace

import numpy as np
import pytest

from bench import stats
from bench.workloads import Outcome, request_loop


def outcome(latencies_s, positions_per_op=10) -> Outcome:
    out = Outcome(setup_samples_s=[0.2, 0.4, 0.3], peak_rss_mb=100.0)
    clock = 0.0
    for latency in latencies_s:
        out.answered(clock, clock + latency)
        clock += latency
        out.attempted += 1
        out.positions += positions_per_op
    return out


def test_metrics_are_taken_over_the_whole_interval():
    steady = outcome([0.001] * 1000)
    # One request in eight stalls: the median does not see it, the tail
    # and the throughput must.
    stalling = outcome([0.001, 0.001, 0.001, 0.001, 0.001, 0.001, 0.001, 0.009]
                       * 125)
    a, b = steady.end_to_end(), stalling.end_to_end()
    assert a["setup_s"] == (0.3, "s")
    assert b["op_p50_ms"][0] == pytest.approx(a["op_p50_ms"][0])
    assert b["op_tail_ms"][0] == pytest.approx(9.0)
    assert a["positions_per_s"][0] == pytest.approx(10_000)
    assert b["positions_per_s"][0] == pytest.approx(5_000)
    assert stalling.best_window_p50_ms() == pytest.approx(1.0)


def test_the_tail_is_p90_only_with_ten_samples_beyond_it():
    solves = outcome([1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6])
    assert solves.tail_percentile() == 75
    assert solves.end_to_end()["op_tail_ms"][0] == pytest.approx(
        stats.percentile(solves.latencies_s, 75) * 1e3)
    assert outcome([0.01] * 99).tail_percentile() == 75
    assert outcome([0.01] * 100).tail_percentile() == 90


def test_no_completed_operation_is_an_error_not_a_zero():
    with pytest.raises(RuntimeError):
        Outcome(setup_samples_s=[0.1]).end_to_end()


class FakeTarget:
    """Answers from the batches' own oracle; misbehaves on request."""

    def __init__(self, batches, wrong=(), raising=(), dies_at=None):
        self._expected = {id(b.positions): b.expected for b in batches}
        self._wrong, self._raising, self._dies_at = wrong, raising, dies_at
        self.calls = []
        self.client = self

    def probe_many(self, positions):
        call = len(self.calls)
        self.calls.append(positions)
        if call in self._raising or (
                self._dies_at is not None and call >= self._dies_at):
            raise ConnectionError("gone")
        values = self._expected[id(positions)].copy()
        if call in self._wrong:
            values[0] += 1
        return values

    def alive(self) -> bool:
        return self._dies_at is None or len(self.calls) <= self._dies_at


def make_batches(count=4, size=8):
    return [SimpleNamespace(positions=[(0, i)] * size,
                            expected=np.full(size, i, dtype=np.int16))
            for i in range(count)]


def test_every_answer_is_checked_and_failures_are_counted():
    batches = make_batches()
    target = FakeTarget(batches, wrong={2}, raising={5})
    out = Outcome()
    request_loop(target, batches, 0.05, out)
    assert out.attempted == len(target.calls) > 8
    assert out.failed == 2 and not out.correct
    assert len(out.latencies_s) == out.attempted - 1  # the raise has no latency
    assert out.positions == 8 * (out.attempted - 2)
    assert out.timed_s >= sum(out.latencies_s)
    # A failed request does not make the loop repeat or skip a batch.
    sent = [positions[0][1] for positions in target.calls]
    assert sent == [i % len(batches) for i in range(len(sent))]


def test_a_dead_server_ends_the_loop_and_is_never_correct():
    batches = make_batches()
    target = FakeTarget(batches, dies_at=3)
    out = Outcome()
    request_loop(target, batches, 5.0, out)
    assert len(target.calls) == 4 and out.attempted == 4 and out.failed == 1
    assert any("died" in problem for problem in out.problems)
    assert not out.correct
