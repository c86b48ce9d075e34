"""Protocol robustness: hostile and broken frames against a live server.

Every case here attacks a running :class:`AsyncProbeServer` with raw
sockets — frames that are not binary, hostile binary frames, truncated
length prefixes, frames over the server's ``max_message_bytes``,
mid-frame disconnects — and asserts the contract of
``_serve_connection``: the client gets an error response or a counted
disconnect, a broken stream is refused on sequence id 0 and torn down,
and the server keeps answering *other* clients.  Never a hung
connection, never an exception escaping the event loop.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.aserve import frames
from repro.aserve.client import BinaryProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, ReconnectPolicy
from repro.serve.client import ProbeError, ProbeTransportError
from repro.serve.service import ProbeService

#: Socket timeout for the attacking side: long enough for a loopback
#: round trip, short enough that a hung server fails the test quickly.
ATTACK_TIMEOUT = 5.0


@pytest.fixture()
def hardened(awari_solved):
    """A live server with a deliberately small frame cap, plus its
    metrics registry and ground truth."""
    game, dbs = awari_solved
    registry = MetricsRegistry()
    service = ProbeService.from_database_set(dbs)
    server = AsyncProbeServer(
        service, metrics=registry.scoped("aserve.server"),
        max_message_bytes=4096,
    ).start()
    # Capture any exception that escapes the server's thread: the
    # isolation contract says none ever may.
    escaped = []
    previous_hook = threading.excepthook

    def hook(args):
        escaped.append(args)
        previous_hook(args)

    threading.excepthook = hook
    yield server, registry, dbs
    threading.excepthook = previous_hook
    server.shutdown()
    service.close()
    assert escaped == [], f"exception escaped a serving thread: {escaped}"


def raw_connection(server) -> socket.socket:
    """A plain TCP connection to the server, no protocol helpers."""
    sock = socket.create_connection((server.host, server.port),
                                    timeout=ATTACK_TIMEOUT)
    return sock


def server_still_answers(server, dbs) -> bool:
    """A fresh well-behaved client gets a correct answer."""
    with BinaryProbeClient(server.host, server.port,
                           timeout=ATTACK_TIMEOUT) as client:
        return client.probe(5, 0) == int(dbs[5][0])


def wait_for_count(registry, names, minimum=1, timeout=ATTACK_TIMEOUT):
    """Poll until the summed counters reach ``minimum``.

    The server bumps its counters asynchronously with respect to the
    attacking socket, so counter assertions must poll rather than read
    once.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        total = sum(registry.counters.get(n, 0) for n in names)
        if total >= minimum:
            return total
        time.sleep(0.02)
    raise AssertionError(
        f"counters {names} never reached {minimum}: {registry.counters}"
    )


def recv_frame(sock) -> bytes:
    """One length-prefixed payload off a raw socket (b'' on EOF)."""
    head = b""
    while len(head) < 4:
        chunk = sock.recv(4 - len(head))
        if not chunk:
            return b""
        head += chunk
    (length,) = struct.unpack(">I", head)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        if not chunk:
            return b""
        payload += chunk
    return payload


def assert_refused(sock) -> str:
    """The connection-scoped refusal: one error frame on sequence id 0,
    then EOF.  Returns the server's message."""
    response = frames.decode_response(recv_frame(sock))
    assert response.seq == 0 and response.error is not None
    assert not response.overloaded
    assert recv_frame(sock) == b""
    return response.error


class TestMalformedFrames:
    def test_oversized_frame_rejected_from_prefix(self, hardened):
        """A declared length over the server's cap is rejected from the
        4-byte prefix alone — no payload needs to be sent at all."""
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            sock.sendall((4097).to_bytes(4, "big"))
            assert "exceeds limit" in assert_refused(sock)
        wait_for_count(registry, ["aserve.server.errors"])
        assert server_still_answers(server, dbs)


class TestTornConnections:
    def test_truncated_length_prefix_then_close(self, hardened):
        """Two bytes of a length prefix, then EOF: treated as a clean
        disconnect, not an error loop."""
        server, registry, dbs = hardened
        sock = raw_connection(server)
        sock.sendall(b"\x00\x00")
        sock.close()
        assert server_still_answers(server, dbs)

    def test_mid_frame_disconnect_is_counted(self, hardened):
        """A frame that promises 100 bytes and delivers 10 before EOF
        must produce an answered error or a counted disconnect."""
        server, registry, dbs = hardened
        sock = raw_connection(server)
        sock.sendall((100).to_bytes(4, "big") + b"0123456789")
        sock.close()
        assert server_still_answers(server, dbs)
        wait_for_count(
            registry,
            ["aserve.server.errors", "aserve.server.client_disconnects"],
        )

    def test_client_vanishes_between_requests(self, hardened):
        """An abrupt RST between frames never wedges the server."""
        server, registry, dbs = hardened
        sock = raw_connection(server)
        sock.sendall(frames.pack_frame(frames.encode_ping(1)))
        assert frames.decode_response(recv_frame(sock)).seq == 1
        # Force an RST instead of a graceful FIN.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        assert server_still_answers(server, dbs)

    def test_hostile_clients_leave_no_stuck_threads(self, hardened):
        """After a burst of torn connections, every connection handler
        leaves its read loop (each one counted as a disconnect) — none
        is parked on a dead socket."""
        server, registry, dbs = hardened
        for _ in range(8):
            sock = raw_connection(server)
            sock.sendall((64).to_bytes(4, "big") + b"x")
            sock.close()
        assert server_still_answers(server, dbs)
        wait_for_count(registry, ["aserve.server.client_disconnects"],
                       minimum=8)


class TestBinaryFuzz:
    """Hostile binary frames against the asyncio server: every case must
    end in an error frame or a counted disconnect with the event loop
    intact — no escaped exceptions, no hangs, and a clean drain at
    shutdown (the fixture's ``shutdown()`` would block forever on a
    wedged handler)."""

    def test_truncated_header_gets_error_frame(self, hardened):
        """A binary frame shorter than the 8-byte header is answered
        with an error frame and the connection survives (the length
        prefix kept the stream in sync)."""
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            sock.sendall(frames.pack_frame(bytes([frames.BINARY_VERSION, 3])))
            response = frames.decode_response(recv_frame(sock))
            assert response.error is not None
            assert "shorter than" in response.error
            # Same connection keeps serving well-formed frames.
            sock.sendall(frames.pack_frame(frames.encode_ping(7)))
            pong = frames.decode_response(recv_frame(sock))
            assert pong.seq == 7 and pong.error is None
        wait_for_count(registry, ["aserve.server.errors"])
        assert server_still_answers(server, dbs)

    def test_bad_opcode_gets_error_frame(self, hardened):
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            payload = struct.pack(
                ">BBHI", frames.BINARY_VERSION, 99, 0, 42
            )
            sock.sendall(frames.pack_frame(payload))
            response = frames.decode_response(recv_frame(sock))
            assert response.error is not None and "opcode" in response.error
            assert response.seq == 42  # error still carries the seq
        assert server_still_answers(server, dbs)

    def test_oversized_from_prefix_rejected_then_closed(self, hardened):
        """A declared length over the cap is rejected from the 4-byte
        prefix alone — no payload buffered, connection closed."""
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            sock.sendall((4097).to_bytes(4, "big"))
            assert "exceeds limit" in assert_refused(sock)
        wait_for_count(registry, ["aserve.server.errors"])
        assert server_still_answers(server, dbs)

    def test_mid_frame_disconnect_is_counted(self, hardened):
        """A frame promising 100 bytes that dies after 10 is a counted
        disconnect, not an error loop."""
        server, registry, dbs = hardened
        sock = raw_connection(server)
        sock.sendall((100).to_bytes(4, "big") + b"\xb1" + b"x" * 9)
        sock.close()
        assert server_still_answers(server, dbs)
        wait_for_count(registry, ["aserve.server.client_disconnects"])

    @pytest.mark.parametrize("first", [b"{", b"[", b"\n", b"\x00", b"\xff"],
                             ids=["brace", "bracket", "newline", "nul", "ff"])
    def test_unknown_version_byte_rejected(self, hardened, first):
        """Any first byte but 0xB1 — a JSON opener, whitespace, garbage —
        is refused on seq 0 naming the byte, then the connection closes;
        other clients are still answered."""
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            sock.sendall(frames.pack_frame(first + b'"op": "ping"}'))
            message = assert_refused(sock)
            assert message == f"unknown protocol version byte 0x{first[0]:02x}"
        wait_for_count(registry, ["aserve.server.errors"])
        assert server_still_answers(server, dbs)

    def test_empty_frame_rejected(self, hardened):
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            sock.sendall((0).to_bytes(4, "big"))
            assert assert_refused(sock) == "empty frame"
        assert server_still_answers(server, dbs)

    def test_interleaved_json_on_binary_connection(self, hardened):
        """The version byte is checked on every frame, not only the
        first: a JSON frame after answered binary frames is refused on
        seq 0 and closes the connection."""
        server, registry, dbs = hardened
        with raw_connection(server) as sock:
            sock.sendall(frames.pack_frame(frames.encode_ping(1)))
            assert frames.decode_response(recv_frame(sock)).seq == 1
            sock.sendall(frames.pack_frame(b'{"op": "ping"}'))
            assert assert_refused(sock) == "unknown protocol version byte 0x7b"
        wait_for_count(registry, ["aserve.server.frames_binary"])
        assert server_still_answers(server, dbs)

    def test_torn_burst_then_clean_drain(self, hardened):
        """A burst of torn connections leaves nothing wedged: the server
        still answers, and the fixture's shutdown() — which waits for
        every connection task — completes (a stuck handler would hang
        the test)."""
        server, registry, dbs = hardened
        for i in range(8):
            sock = raw_connection(server)
            if i % 2:
                sock.sendall((64).to_bytes(4, "big") + b"\xb1")
            else:
                sock.sendall(b"\x00\x00")
            sock.close()
        assert server_still_answers(server, dbs)

    def test_max_connections_cap(self, awari_solved):
        """Connections beyond the cap are refused on seq 0 — a raw
        socket reads the refusal then EOF, a client raises a transport
        error naming the capacity — and closing one frees a slot."""
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service = ProbeService.from_database_set(dbs)
        server = AsyncProbeServer(
            service, metrics=registry.scoped("aserve.server"),
            max_connections=2,
        ).start()
        try:
            with BinaryProbeClient(server.host, server.port) as a, \
                    BinaryProbeClient(server.host, server.port) as b:
                assert a.ping() and b.ping()
                with raw_connection(server) as sock:
                    assert "capacity" in assert_refused(sock)
                with BinaryProbeClient(
                    server.host, server.port,
                    policy=ReconnectPolicy(request_replays=0),
                ) as c, pytest.raises(ProbeTransportError,
                                      match="rejected the connection: "
                                            "server at capacity"):
                    c.ping()
            wait_for_count(registry, ["aserve.server.connections_rejected"],
                           minimum=2)
            deadline = time.monotonic() + ATTACK_TIMEOUT
            while time.monotonic() < deadline:
                try:
                    assert server_still_answers(server, dbs)
                    break
                except (ProbeError, OSError):
                    time.sleep(0.05)
            else:
                raise AssertionError("capacity never freed after close")
        finally:
            server.shutdown()
            service.close()


class TestDropUnderPipelining:
    """Injected connection drops against the asyncio server while a
    pipelined client keeps a window of requests in flight.  Every sever
    kills the in-flight tail of the pipeline at once; the client's
    reconnect-and-replay must still deliver bit-correct answers for
    every batch, and both sides must count what happened."""

    FUZZ_POLICY = ReconnectPolicy(
        connect_attempts=4,
        request_replays=3,
        backoff_seconds=0.01,
        backoff_max_seconds=0.02,
    )

    def _faulted_server(self, dbs, registry, spec):
        service = ProbeService.from_database_set(dbs)
        server = AsyncProbeServer(
            service, metrics=registry.scoped("aserve.server"),
            faults=FaultPlan.from_specs([spec]),
        ).start()
        return service, server

    def test_severed_mid_pipeline_replays_to_correct_answers(
            self, awari_solved):
        """``drop-conn:after=5``: each connection is severed after five
        answers, so a run of three-batch pipelines keeps getting cut
        mid-flight.  Every returned value must still match the oracle."""
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service, server = self._faulted_server(
            dbs, registry, "drop-conn:after=5"
        )
        rng = np.random.default_rng(1234)
        ids = sorted(dbs.ids())
        try:
            with BinaryProbeClient(
                server.host, server.port, timeout=ATTACK_TIMEOUT,
                policy=self.FUZZ_POLICY,
            ) as client:
                for _ in range(8):
                    batches = [
                        [
                            (db_id, int(rng.integers(len(dbs[db_id]))))
                            for db_id in rng.choice(ids, size=3)
                        ]
                        for _ in range(3)
                    ]
                    results = client.pipeline(batches)
                    for batch, values in zip(batches, results):
                        for (db_id, index), value in zip(batch, values):
                            assert value == int(dbs[db_id][index])
                assert client.reconnects >= 1
        finally:
            server.shutdown()
            service.close()
        assert registry.counters["aserve.server.faults.connections_severed"] >= 1

    def test_dropped_accept_is_absorbed_by_replay(self, awari_solved):
        """``drop-conn:every=2``: every second accepted connection is
        closed before serving a byte.  The client only notices on its
        first request and must reconnect-and-replay transparently."""
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service, server = self._faulted_server(
            dbs, registry, "drop-conn:every=2"
        )
        try:
            for _ in range(4):  # hit both dropped and surviving accepts
                with BinaryProbeClient(
                    server.host, server.port, timeout=ATTACK_TIMEOUT,
                    policy=self.FUZZ_POLICY,
                ) as client:
                    assert client.probe(5, 0) == int(dbs[5][0])
        finally:
            server.shutdown()
            service.close()
        assert registry.counters["aserve.server.faults.connections_dropped"] >= 1

    def test_blackholed_request_ends_at_the_client_timeout(
            self, awari_solved):
        """``blackhole:after=1``: the first request is answered, the
        second is read and never answered, so only the client's timeout
        ends it — and the server counts the swallowed request."""
        game, dbs = awari_solved
        registry = MetricsRegistry()
        service, server = self._faulted_server(
            dbs, registry, "blackhole:after=1"
        )
        try:
            with BinaryProbeClient(
                server.host, server.port, timeout=0.2,
                policy=ReconnectPolicy(connect_attempts=1,
                                       request_replays=0),
            ) as client:
                assert client.probe(5, 0) == int(dbs[5][0])
                with pytest.raises(
                    ProbeTransportError, match="timed out after 0.2s"
                ):
                    client.probe(5, 1)
        finally:
            server.shutdown()
            service.close()
        assert registry.counters["aserve.server.faults.requests_blackholed"] == 1
