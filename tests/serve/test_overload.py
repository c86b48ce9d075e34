"""Overload shedding on the probe server, for both frame kinds.

With ``max_inflight=1`` and an injected per-request latency, one slow
request holds the whole budget; a second concurrent request must be
shed with a *well-formed* overload answer — ``ok: false`` with
``reason: "overloaded"`` on the JSON wire, an error frame carrying
``FLAG_OVERLOADED`` on the binary wire — and the shed connection must
stay usable.  Shedding is per request, never a hang or a closed socket:
that contract is what lets the cluster router fail over instantly
without tripping the endpoint's circuit breaker.
"""

import socket
import threading
import time

import pytest

from repro.aserve.client import BinaryProbeClient
from repro.aserve.server import AsyncProbeServer
from repro.obs import MetricsRegistry
from repro.resilience.faults import FaultPlan
from repro.serve.client import ProbeError, ProbeOverloadedError
from repro.serve.protocol import recv_message, send_message
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


class JsonConnection:
    """One raw connection speaking JSON frames, with the ``probe`` call
    the tests need; an overload answer raises like a client would."""

    def __init__(self, server):
        self._sock = socket.create_connection(
            (server.host, server.port), timeout=30
        )

    def probe(self, db_id, index):
        send_message(self._sock, {"op": "probe", "db": db_id, "index": index})
        response = recv_message(self._sock)
        if not response["ok"]:
            if response.get("reason") == "overloaded":
                raise ProbeOverloadedError(response["error"])
            raise ProbeError(response["error"])
        return response["value"]

    def close(self):
        self._sock.close()


def probe_in_background(client, db_id):
    """Fire ``client.probe(db_id, 0)`` on a thread; returns (thread,
    results dict) — the result lands under ``"value"``."""
    results: dict = {}

    def hold():
        results["value"] = client.probe(db_id, 0)

    thread = threading.Thread(target=hold, daemon=True)
    thread.start()
    return thread, results


class TestJsonOverload:
    def test_second_request_is_shed_then_the_server_recovers(self, tmp_path):
        registry = MetricsRegistry()
        server, service, dbs = start_server(registry, tmp_path)
        slow = JsonConnection(server)
        fast = JsonConnection(server)
        try:
            db_id = dbs.ids()[0]
            expected = int(dbs[db_id][0])
            thread, results = probe_in_background(slow, db_id)
            time.sleep(SETTLE_SECONDS)
            with pytest.raises(ProbeOverloadedError, match="overloaded"):
                fast.probe(db_id, 0)
            thread.join(timeout=30)
            assert results["value"] == expected
            assert registry.counters["aserve.server.overloads"] >= 1
            # The shed client was never disconnected: once the slot is
            # free the very same connection serves correct answers.
            assert fast.probe(db_id, 0) == expected
        finally:
            slow.close()
            fast.close()
            server.shutdown()
            service.close()

    def test_shed_answer_is_well_formed_on_the_wire(self, tmp_path):
        """Raw-socket check: the overload answer is a parseable JSON
        frame with a machine-readable reason, not a dropped or
        half-written connection."""
        registry = MetricsRegistry()
        server, service, dbs = start_server(registry, tmp_path)
        slow = JsonConnection(server)
        try:
            db_id = dbs.ids()[0]
            thread, results = probe_in_background(slow, db_id)
            time.sleep(SETTLE_SECONDS)
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as raw:
                send_message(
                    raw, {"op": "probe", "db": db_id, "index": 0}
                )
                response = recv_message(raw)
            assert response is not None
            assert response["ok"] is False
            assert response["reason"] == "overloaded"
            assert "overloaded" in response["error"]
            thread.join(timeout=30)
            assert results["value"] == int(dbs[db_id][0])
        finally:
            slow.close()
            server.shutdown()
            service.close()


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
            # The FLAG_OVERLOADED error frame surfaces as the same
            # exception type as the JSON reason does.
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
