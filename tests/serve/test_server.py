"""TCP server + client end-to-end tests (loopback, ephemeral ports).

The probe server is :class:`~repro.aserve.server.AsyncProbeServer`; the
client is the pipelined :class:`~repro.aserve.client.BinaryProbeClient`,
and malformed requests go out as raw binary frames.
"""

import contextlib
import socket
import threading

import numpy as np
import pytest

from repro.aserve import frames
from repro.aserve.client import (
    AsyncProbeClient,
    BinaryProbeClient,
    EventLoopThread,
)
from repro.aserve.server import AsyncProbeServer
from repro.db.query import best_moves, optimal_line
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan
from repro.serve.client import ProbeError
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.serve.service import ProbeService


@pytest.fixture(scope="module")
def served(awari_solved, awari_paged_path):
    """A running paged-backed server plus the ground-truth DatabaseSet
    (session-wide store; nothing is re-solved or re-paged here)."""
    game, dbs = awari_solved
    service = ProbeService.from_paged(awari_paged_path, cache_bytes=64 * 1024)
    server = AsyncProbeServer(service).start()
    yield game, dbs, server
    server.shutdown()
    service.close()


@pytest.fixture()
def client(served):
    _, _, server = served
    with BinaryProbeClient(server.host, server.port) as c:
        yield c


def ask_raw(server, payload: bytes) -> frames.Response:
    """One raw binary frame round trip on a fresh connection."""
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        sock.sendall(frames.pack_frame(payload))
        head = sock.recv(4, socket.MSG_WAITALL)
        return frames.decode_response(
            sock.recv(int.from_bytes(head, "big"), socket.MSG_WAITALL)
        )


class TestWire:
    def test_ping_info(self, served, client):
        game, dbs, _ = served
        assert client.ping()
        info = client.info()
        assert info["game"] == "awari"
        assert info["backend"] == "paged"
        assert info["ids"] == dbs.ids()
        assert client.positions(5) == dbs[5].shape[0]
        assert 5 in client and 99 not in client

    def test_probe_and_batch_match_ground_truth(self, served, client):
        _, dbs, _ = served
        rng = np.random.default_rng(1)
        pairs = [
            (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
            for d in rng.integers(0, 6, size=200)
        ]
        expected = np.array([int(dbs[d][i]) for d, i in pairs], dtype=np.int16)
        np.testing.assert_array_equal(client.probe_many(pairs), expected)
        d, i = pairs[0]
        assert client.probe(d, i) == int(expected[0])

    def test_best_move_matches_local(self, served, client):
        game, dbs, _ = served
        indexer = game.engine.indexer(5)
        rng = np.random.default_rng(8)
        for idx in rng.integers(0, indexer.count, size=10):
            board = indexer.unrank(np.array([int(idx)]))[0]
            want_value, want_moves = best_moves(game, dbs, board)
            answer = client.best_move(board)
            assert answer["value"] == want_value
            assert answer["pits"] == [m.pit for m in want_moves]

    def test_client_speaks_probe_protocol(self, served, client):
        """optimal_line runs unmodified over the TCP client."""
        game, dbs, _ = served
        indexer = game.engine.indexer(5)
        rng = np.random.default_rng(12)
        for idx in rng.integers(0, indexer.count, size=3):
            board = indexer.unrank(np.array([int(idx)]))[0]
            realized, _ = optimal_line(game, client, board)
            assert realized == int(dbs[5][int(idx)])

    def test_stats_op(self, served, client):
        stats = client.stats()
        assert stats["backend"] == "paged"
        assert stats["misses"] >= 0 and "hit_rate" in stats

    def test_sequence_id_wraps_past_zero(self, served):
        """Sequence id 0 is the server's connection refusal, so a client
        whose counter sits at 2**32 - 1 sends its next request as 1."""
        _, dbs, server = served
        loop = EventLoopThread()

        async def probe_after_wrap():
            client = await AsyncProbeClient.connect(server.host, server.port)
            try:
                client._seq = 0xFFFFFFFF
                return await client.probe(5, 3), client._seq
            finally:
                await client.close()

        try:
            value, seq = loop.run(probe_after_wrap())
        finally:
            loop.close()
        assert seq == 1
        assert value == int(dbs[5][3])


class TestBatchWireFormat:
    """The batch op casts indices once, as an array; what travels and
    what comes back on an error stay what they were."""

    def test_request_bytes(self):
        """Tuples, lists, numpy integers and iterators all travel as the
        same packed binary request frame."""
        payloads = []
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                while True:
                    head = conn.recv(4, socket.MSG_WAITALL)
                    if not head:
                        return
                    payload = conn.recv(int.from_bytes(head, "big"),
                                        socket.MSG_WAITALL)
                    payloads.append(payload)
                    conn.sendall(frames.pack_frame(frames.encode_values(
                        frames.peek_seq(payload),
                        np.zeros(2, dtype=np.int16),
                    )))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with BinaryProbeClient(*listener.getsockname()) as c:
                c.probe_many([(5, 0), (5, 1)])
                c.probe_many([[5, np.int64(0)], (5, np.int32(1))])
                c.probe_many(iter([(5, 0), (5, 1)]))
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()
        assert len(payloads) == 3
        requests = [frames.decode_request(p) for p in payloads]
        assert [r.seq for r in requests] == [1, 2, 3]
        for request in requests:
            assert request.opcode == frames.OP_PROBE_MANY
            assert list(request.directory) == [5]
            assert request.db_slots.tolist() == [0, 0]
            assert request.indices.tolist() == [0, 1]
        # Only the sequence id differs between the three frames.
        assert len({p[8:] for p in payloads}) == 1


class TestErrors:
    def test_missing_database_over_wire(self, served, client):
        with pytest.raises(ProbeError, match="not present"):
            client.probe(99, 0)

    def test_bad_index_over_wire(self, served, client):
        with pytest.raises(ProbeError, match="out of range"):
            client.probe(5, 10**9)

    def test_bad_board_over_wire(self, served, client):
        """A best_move frame with three pit counts instead of twelve."""
        _, _, server = served
        short = frames.encode_best_move(9, [0] * 12)[:-18]
        answer = ask_raw(server, short)
        assert answer.seq == 9 and "12 int16 pit counts" in answer.error

    def test_connection_survives_errors(self, served, client):
        """An application error must not poison the connection."""
        _, dbs, _ = served
        with pytest.raises(ProbeError):
            client.probe(99, 0)
        assert client.probe(5, 0) == int(dbs[5][0])


    @pytest.mark.parametrize("bad, fault", [
        ("op.probe", None), ("requests", None), ("frames_binary", None),
        ("faults.latency_injected", "latency:ms=1"),
    ])
    def test_failing_request_counter_answers_an_error_frame(
        self, awari_solved, bad, fault
    ):
        """A counter that raises while the server counts a request (a
        metric name the catalog lacks raises ``ValueError``) is that
        request's error, on its sequence id; the connection stays up and
        answers the next request normally."""
        with _connected_with_failing(awari_solved, bad, fault) as sock:
            answer = _ask_on(sock, frames.encode_probe(7, 5, 0))
            assert answer.seq == 7
            assert "ValueError" in answer.error and bad in answer.error
            pong = _ask_on(sock, frames.encode_ping(8))
            assert pong.seq == 8 and pong.error is None

    def test_failing_overload_counter_still_sheds_on_the_request_seq(
        self, awari_solved
    ):
        """A raising ``overloads`` counter still answers the shed
        request on its own sequence id, then refuses the connection on
        sequence id 0 with the counter's error."""
        with _connected_with_failing(awari_solved, "overloads",
                                     max_inflight=0) as sock:
            shed = _ask_on(sock, frames.encode_probe(7, 5, 0))
            assert shed.seq == 7 and shed.overloaded
            refusal = _recv_on(sock)
            assert refusal.seq == 0 and "overloads" in refusal.error
            assert sock.recv(1) == b""

    def test_failing_blackhole_counter_refuses_on_seq_0(self, awari_solved):
        """A swallowed request is never answered on its own sequence id,
        so a raising ``faults.requests_blackholed`` counter ends the
        connection in the refusal frame on sequence id 0."""
        with _connected_with_failing(awari_solved, "faults.requests_blackholed",
                                     "blackhole:after=0") as sock:
            sock.sendall(frames.pack_frame(frames.encode_probe(7, 5, 0)))
            refusal = _recv_on(sock)
            assert refusal.seq == 0
            assert "faults.requests_blackholed" in refusal.error
            assert sock.recv(1) == b""

    def test_failing_connection_counter_refuses_and_closes(self, awari_solved):
        """A raising ``connections`` counter ends the connection in the
        refusal frame on sequence id 0, and the server closes it."""
        with _connected_with_failing(awari_solved, "connections") as sock:
            refusal = _recv_on(sock)
            assert refusal.seq == 0
            assert "ValueError" in refusal.error
            assert "connections" in refusal.error
            assert sock.recv(1) == b""


@contextlib.contextmanager
def _connected_with_failing(awari_solved, bad: str, fault: str | None = None,
                            **server_kwargs):
    """A connection to a fresh server whose counter ``bad`` raises once,
    with the injected ``fault`` spec if one is given."""
    _, dbs = awari_solved
    service = ProbeService.from_database_set(dbs)
    faults = None if fault is None else FaultPlan.from_specs([fault])
    server = AsyncProbeServer(service, metrics=_FailingOpCounter(bad),
                              faults=faults, **server_kwargs).start()
    try:
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            yield sock
    finally:
        server.shutdown()
        service.close()


class _FailingOpCounter:
    """A metrics stub whose counter ``bad`` raises the first time it is
    counted, as an undeclared metric name does; every other counter
    counts."""

    def __init__(self, bad: str):
        self.bad, self.counters = bad, {}

    def inc(self, name: str, n: int = 1) -> None:
        if name == self.bad and name not in self.counters:
            self.counters[name] = 0
            raise ValueError(f"metric name {name!r} is not in the catalog")
        self.counters[name] = self.counters.get(name, 0) + n


def _ask_on(sock, payload: bytes) -> frames.Response:
    """One binary frame round trip on an open connection."""
    sock.sendall(frames.pack_frame(payload))
    return _recv_on(sock)


def _recv_on(sock) -> frames.Response:
    """The next response frame on an open connection."""
    head = sock.recv(4, socket.MSG_WAITALL)
    return frames.decode_response(
        sock.recv(int.from_bytes(head, "big"), socket.MSG_WAITALL)
    )


class TestProtocolFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "ping", "payload": "x" * 100_000})
            message = recv_message(b)
            assert message["op"] == "ping"
            assert len(message["payload"]) == 100_000
        finally:
            a.close()
            b.close()

    def test_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall((100).to_bytes(4, "big") + b"short")
            a.close()
            with pytest.raises(ProtocolError, match="connection closed"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="exceeds limit"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_json_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = b"\xff\xfe not json"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError, match="bad JSON"):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestConcurrencyAndShutdown:
    def test_concurrent_clients_agree(self, served):
        game, dbs, server = served
        errors: list = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                with BinaryProbeClient(server.host, server.port) as c:
                    pairs = [
                        (5, int(i))
                        for i in rng.integers(0, dbs[5].shape[0], size=300)
                    ]
                    got = c.probe_many(pairs)
                    want = np.array(
                        [int(dbs[5][i]) for _, i in pairs], dtype=np.int16
                    )
                    np.testing.assert_array_equal(got, want)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_graceful_shutdown_with_connected_client(self, awari_solved):
        game, dbs = awari_solved
        service = ProbeService.from_database_set(dbs)
        server = AsyncProbeServer(service).start()
        client = BinaryProbeClient(server.host, server.port)
        assert client.probe(5, 0) == int(dbs[5][0])
        server.shutdown()  # returns only once the loop thread joined
        prefix = f"aserve-{server.port}"
        for thread in threading.enumerate():
            assert not thread.name.startswith(prefix), thread
        client.close()
        service.close()

    def test_server_metrics(self, awari_solved):
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service = ProbeService.from_database_set(dbs)
        server = AsyncProbeServer(
            service, metrics=registry.scoped("aserve.server")
        ).start()
        with BinaryProbeClient(server.host, server.port) as client:
            client.ping()
            client.probe(5, 0)
        assert ask_raw(server, b"{}").error.startswith(
            "unknown protocol version byte 0x7b"
        )
        server.shutdown()
        service.close()
        counters = registry.counters
        assert counters["aserve.server.connections"] == 2
        assert counters["aserve.server.requests"] == 2
        assert counters["aserve.server.op.probe"] == 1
        assert counters["aserve.server.errors"] == 1
        assert counters["aserve.server.frames_binary"] == 2
