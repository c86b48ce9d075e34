"""The reconnecting probe client against a chaotic server.

A server configured with ``drop-conn`` faults closes connections on
accept (every Nth) and severs established ones mid-session (after K
responses); the reconnecting
:class:`~repro.aserve.client.BinaryProbeClient` must shrug all of it
off and return exactly the answers a fault-free session would.
"""

import socket
import struct

import numpy as np
import pytest

from repro.core.sequential import SequentialSolver
from repro.db.store import DatabaseSet
from repro.games.awari_db import AwariCaptureGame
from repro.obs import MetricsRegistry
from repro.resilience import ReconnectPolicy
from repro.aserve import frames
from repro.aserve.client import BinaryProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.resilience.faults import FaultPlan
from repro.serve.client import ProbeError, ProbeTransportError
from repro.serve.service import ProbeService

#: Tight backoff so reconnect storms resolve in milliseconds.
FAST = ReconnectPolicy(connect_attempts=6, request_replays=5,
                       backoff_seconds=0.005, backoff_max_seconds=0.05)


@pytest.fixture(scope="module")
def dbs():
    game = AwariCaptureGame()
    values, _ = SequentialSolver(game).solve(5)
    return DatabaseSet(game_name=game.name, values=values,
                       rules=game.rules.describe())


def _chaos_server(dbs, *specs, **kwargs):
    faults = FaultPlan.from_specs(list(specs))
    service = ProbeService.from_database_set(dbs)
    return AsyncProbeServer(service, faults=faults, **kwargs).start()


class TestReconnect:
    def test_probes_survive_accept_drops(self, dbs):
        """Every 5th connection is refused; 200 probes still all land."""
        server = _chaos_server(dbs, "drop-conn:every=5")
        metrics = MetricsRegistry()
        try:
            rng = np.random.default_rng(3)
            pairs = [(int(d), int(rng.integers(0, dbs[d].shape[0])))
                     for d in rng.choice(dbs.ids(), size=200)]
            expected = [int(dbs[d][i]) for d, i in pairs]
            got = []
            reconnects = 0
            for k in range(0, 200, 40):
                with BinaryProbeClient(
                    server.host, server.port, policy=FAST,
                    metrics=metrics.scoped("aserve.client"),
                ) as client:
                    got.extend(client.probe(d, i) for d, i in pairs[k:k + 40])
                    reconnects += client.reconnects
            assert got == expected
        finally:
            server.shutdown()
        # Five sessions over a drop-every-5 server: the fifth accepted
        # socket is closed before it serves a byte, so that session must
        # reconnect at least once.
        assert reconnects > 0
        assert metrics.counters["aserve.client.reconnects"] == reconnects

    def test_probes_survive_mid_session_severing(self, dbs):
        """The server cuts every connection after 25 responses; one
        client session of 200 probes transparently reconnects through."""
        server = _chaos_server(dbs, "drop-conn:every=1000,after=25")
        try:
            rng = np.random.default_rng(4)
            pairs = [(int(d), int(rng.integers(0, dbs[d].shape[0])))
                     for d in rng.choice(dbs.ids(), size=200)]
            with BinaryProbeClient(server.host, server.port,
                                   policy=FAST) as client:
                got = [client.probe(d, i) for d, i in pairs]
                assert client.reconnects >= 200 // 25 - 1
            assert got == [int(dbs[d][i]) for d, i in pairs]
        finally:
            server.shutdown()

    def test_batch_probes_survive_severing(self, dbs):
        server = _chaos_server(dbs, "drop-conn:every=1000,after=3")
        try:
            rng = np.random.default_rng(5)
            pairs = [(int(d), int(rng.integers(0, dbs[d].shape[0])))
                     for d in rng.choice(dbs.ids(), size=64)]
            with BinaryProbeClient(server.host, server.port,
                                   policy=FAST) as client:
                for _ in range(12):
                    got = client.probe_many(pairs)
                    np.testing.assert_array_equal(
                        got, [int(dbs[d][i]) for d, i in pairs]
                    )
        finally:
            server.shutdown()

    def test_reconnect_disabled_surfaces_the_drop(self, dbs):
        server = _chaos_server(dbs, "drop-conn:every=1000,after=2")
        try:
            with BinaryProbeClient(server.host, server.port, policy=FAST,
                                   reconnect=False) as client:
                with pytest.raises(ProbeError, match="lost|failed"):
                    for _ in range(10):
                        client.ping()
        finally:
            server.shutdown()


class TestClientHardening:
    def test_connect_to_dead_port_is_probe_error(self):
        victim = socket.socket()
        victim.bind(("127.0.0.1", 0))
        port = victim.getsockname()[1]
        victim.close()  # nobody listens here any more
        policy = ReconnectPolicy(connect_attempts=2, backoff_seconds=0.001)
        with pytest.raises(ProbeError, match="cannot connect"):
            BinaryProbeClient("127.0.0.1", port, timeout=0.5, policy=policy)

    def test_close_is_idempotent(self, dbs):
        server = _chaos_server(dbs, "drop-conn:every=1000")
        try:
            client = BinaryProbeClient(server.host, server.port, policy=FAST)
            assert client.ping()
            client.close()
            client.close()
            client.close()
        finally:
            server.shutdown()

    def test_closed_client_refuses_requests(self, dbs):
        server = _chaos_server(dbs, "drop-conn:every=1000")
        try:
            client = BinaryProbeClient(server.host, server.port, policy=FAST)
            client.close()
            with pytest.raises(ProbeError, match="closed"):
                client.ping()
        finally:
            server.shutdown()


class TestServerHardening:
    def test_oversized_frame_refused_server_survives(self, dbs):
        """A frame above the server's limit draws a seq-0 refusal and a
        close — a client sees a transport error carrying the server's
        message — and the server keeps serving other clients."""
        service = ProbeService.from_database_set(dbs)
        server = AsyncProbeServer(service, max_message_bytes=256).start()
        try:
            with socket.create_connection((server.host, server.port),
                                          timeout=5) as sock:
                payload = frames.encode_ping(1) + b"x" * 1024
                sock.sendall(frames.pack_frame(payload))
                with sock.makefile("rb") as stream:
                    (length,) = frames.LENGTH.unpack(stream.read(4))
                    response = frames.decode_response(stream.read(length))
                    assert stream.read() == b""
            assert response.seq == 0
            assert response.error == (
                f"frame of {len(payload)} bytes exceeds limit (256)"
            )
            with BinaryProbeClient(server.host, server.port,
                                   reconnect=False) as c, \
                    pytest.raises(ProbeTransportError,
                                  match="rejected the connection: frame of "
                                        r"\d+ bytes exceeds limit \(256\)"):
                c.probe_many([(5, i) for i in range(100)])
            # And the listener is still healthy for the next client.
            with BinaryProbeClient(server.host, server.port,
                                   policy=FAST) as c:
                assert c.ping()
        finally:
            server.shutdown()

    def test_garbage_frame_isolates_to_one_connection(self, dbs):
        service = ProbeService.from_database_set(dbs)
        server = AsyncProbeServer(service).start()
        try:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=5)
            sock.sendall(struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc")
            sock.close()
            with BinaryProbeClient(server.host, server.port,
                                   policy=FAST) as c:
                assert c.ping()
        finally:
            server.shutdown()
