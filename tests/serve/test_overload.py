"""Overload shedding on the probe server.

With ``max_inflight=1`` and an injected per-request latency, one slow
request holds the whole budget; a second concurrent request must be
shed with a *well-formed* overload answer — an error frame carrying
``FLAG_OVERLOADED`` on the request's own sequence id — and the shed
connection must stay usable.  Shedding is per request, never a hang or
a closed socket: that contract is what lets the cluster router fail
over instantly without tripping the endpoint's circuit breaker.  A
frame that is not binary at all is still refused and closed while the
server sheds: the version byte is checked before the budget.
"""

import socket
import threading
import time

import pytest

from repro.aserve import frames
from repro.aserve.client import BinaryProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.obs import MetricsRegistry
from repro.resilience.faults import FaultPlan
from repro.serve.client import ProbeOverloadedError
from repro.serve.service import ProbeService

from tests.workloads import solved_set

#: Every request pays this delay while *holding* its in-flight slot, so
#: a concurrent second request reliably finds the budget exhausted.
HOLD_MS = 500

#: How long to let the slow request settle into its delay before firing
#: the request that must be shed.
SETTLE_SECONDS = 0.15


def start_server(registry, state_dir):
    _, dbs = solved_set("synthetic")
    service = ProbeService.from_database_set(dbs)
    faults = FaultPlan.from_specs(
        [f"latency:ms={HOLD_MS}"], state_dir=str(state_dir)
    )
    server = AsyncProbeServer(
        service, metrics=registry.scoped("aserve.server"), faults=faults,
        max_inflight=1,
    ).start()
    return server, service, dbs


def probe_in_background(client, db_id):
    """Fire ``client.probe(db_id, 0)`` on a thread; returns (thread,
    results dict) — the result lands under ``"value"``."""
    results: dict = {}

    def hold():
        results["value"] = client.probe(db_id, 0)

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    return thread, results


class TestBinaryOverload:
    def test_second_request_is_shed_then_the_server_recovers(self, tmp_path):
        registry = MetricsRegistry()
        server, service, dbs = start_server(registry, tmp_path)
        slow = BinaryProbeClient(server.host, server.port)
        fast = BinaryProbeClient(server.host, server.port)
        try:
            db_id = dbs.ids()[0]
            expected = int(dbs[db_id][0])
            thread, results = probe_in_background(slow, db_id)
            time.sleep(SETTLE_SECONDS)
            # The FLAG_OVERLOADED error frame surfaces as its own
            # exception type, not as a transport failure.
            with pytest.raises(ProbeOverloadedError, match="overloaded"):
                fast.probe(db_id, 0)
            thread.join(timeout=30)
            assert results["value"] == expected
            assert registry.counters["aserve.server.overloads"] >= 1
            # Per-request shedding: the multiplexed connection is still
            # open and serves once the in-flight budget frees up.
            assert fast.probe(db_id, 0) == expected
        finally:
            slow.close()
            fast.close()
            server.shutdown()
            service.close()

    def test_garbage_frame_is_refused_not_shed(self, tmp_path):
        """Raw-socket check while the budget is held: a frame whose
        first byte is not 0xB1 draws the seq-0 refusal — an error frame
        without FLAG_OVERLOADED — and then EOF, exactly as it would on an
        idle server."""
        registry = MetricsRegistry()
        server, service, dbs = start_server(registry, tmp_path)
        slow = BinaryProbeClient(server.host, server.port)
        try:
            db_id = dbs.ids()[0]
            thread, results = probe_in_background(slow, db_id)
            time.sleep(SETTLE_SECONDS)
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as raw:
                raw.sendall(frames.pack_frame(b"\x00junk"))
                with raw.makefile("rb") as stream:
                    (length,) = frames.LENGTH.unpack(
                        stream.read(frames.LENGTH.size)
                    )
                    response = frames.decode_response(stream.read(length))
                    assert stream.read() == b""
            assert response.seq == 0
            assert response.error == "unknown protocol version byte 0x00"
            assert not response.overloaded
            thread.join(timeout=30)
            assert results["value"] == int(dbs[db_id][0])
            assert registry.counters.get("aserve.server.overloads", 0) == 0
        finally:
            slow.close()
            server.shutdown()
            service.close()
