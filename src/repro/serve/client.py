"""TCP probe client with transparent reconnection.

A :class:`ProbeClient` speaks the wire protocol of
:mod:`repro.serve.protocol` *and* implements the probe protocol of
:class:`~repro.serve.service.ProbeService` (``probe`` / ``probe_many`` /
``__contains__`` / ``depth_of``), so the in-memory query and search code
— :func:`repro.db.query.best_moves`, :func:`repro.db.query.optimal_line`,
:class:`repro.db.search.DatabaseProbingSearch` — runs unmodified against
a remote server (see ``examples/served_play.py``).

Failure handling: every transport error (refused/reset connection,
timeout, torn frame) is normalized to :class:`ProbeError`.  Because the
probe protocol is a pure lookup service, every request is idempotent —
after a dropped connection the client reconnects with bounded backoff
(:class:`~repro.resilience.ReconnectPolicy`) and transparently replays
the in-flight request; a long search mid-game survives a server restart
or a flaky network hop.  Reconnections are counted on
:attr:`ProbeClient.reconnects` and as ``resilience.reconnects`` in an
optional metrics registry.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from ..db.store import DatabaseSet
from ..obs import NULL_METRICS, names
from ..resilience import ReconnectPolicy
from .protocol import ProtocolError, recv_message, send_message

__all__ = ["ProbeError", "ProbeTransportError", "ProbeOverloadedError",
           "ProbeClient"]


class ProbeError(RuntimeError):
    """A probe failed: the server rejected the request (``ok: false``)
    or the connection could not be (re-)established within the policy's
    bounds.  Every raw socket error surfaces as this type."""


class ProbeTransportError(ProbeError):
    """The *transport* failed: the connection could not be established,
    or it dropped and the bounded replays ran out.  Distinct from an
    application rejection (plain :class:`ProbeError` on ``ok: false``)
    because retrying elsewhere can help — the cluster
    :class:`~repro.cluster.router.ShardRouter` fails over to a replica
    on this type only; an ``ok: false`` answer would be identical on
    every replica and is re-raised as-is."""


class ProbeOverloadedError(ProbeError):
    """The server shed this request under load (``reason: overloaded``
    / the binary OVERLOADED flag).  Deliberately *not* a
    :class:`ProbeTransportError`: the endpoint is alive and the
    connection survives, so the router tries the next replica
    immediately without recording a circuit-breaker failure — shedding
    is the server protecting itself, not the server dying."""


class ProbeClient:
    """Blocking client for one probe server, reconnecting on failure.

    ``reconnect=False`` restores fail-fast semantics (no replays);
    ``policy`` bounds connection attempts, request replays, and backoff.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 policy: ReconnectPolicy | None = None,
                 reconnect: bool = True, metrics=None):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.policy = policy if policy is not None else ReconnectPolicy()
        self.reconnect = reconnect
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Connections re-established after a drop (not the initial one).
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._closed = False
        self._info: dict | None = None
        self._connect()

    # ----------------------------------------------------------------- wire

    def _connect(self) -> None:
        attempts = max(self.policy.connect_attempts, 1)
        last: OSError | None = None
        for attempt in range(1, attempts + 1):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                return
            except OSError as exc:
                last = exc
                self._sock = None
                if attempt < attempts:
                    self.metrics.inc(names.RESILIENCE_CONNECT_RETRIES)
                    time.sleep(self.policy.backoff(attempt))
        raise ProbeTransportError(
            f"cannot connect to {self.host}:{self.port} after "
            f"{attempts} attempts: {last}"
        ) from last

    def set_timeout(self, seconds: float) -> None:
        """Adjust the per-request timeout, live connection included —
        the router's deadline machinery caps each failover attempt to
        the remaining call budget through this hook."""
        seconds = float(seconds)
        if seconds <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = seconds
        if self._sock is not None:
            self._sock.settimeout(seconds)

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # staticcheck: disable=RA004 -- best-effort close of an already-failed socket; the caller counts the drop (reconnects / the raised ProbeError), closing twice has no signal to record
                pass
            self._sock = None

    def request(self, message: dict, idempotent: bool = True) -> dict:
        """One round trip; raises :class:`ProbeError` on ``ok: false``.

        Transport failures of idempotent requests are transparently
        replayed over a fresh connection, up to the policy's bound.  All
        probe-protocol operations are idempotent; pass
        ``idempotent=False`` for a hypothetical mutating op to make a
        transport failure surface immediately instead.
        """
        if self._closed:
            raise ProbeError("client is closed")
        replays = (
            self.policy.request_replays
            if (self.reconnect and idempotent)
            else 0
        )
        for attempt in range(replays + 1):
            try:
                if self._sock is None:
                    self._connect()
                    self.reconnects += 1
                    self.metrics.inc(names.RESILIENCE_RECONNECTS)
                send_message(self._sock, message)
                response = recv_message(self._sock)
                if response is None:
                    raise ConnectionError("server closed the connection")
            except ProbeError:
                raise  # _connect exhausted its own bounded retries
            except (OSError, ProtocolError) as exc:
                self._drop_socket()
                if attempt >= replays:
                    raise ProbeTransportError(
                        f"request {message.get('op')!r} to "
                        f"{self.host}:{self.port} failed: {exc}"
                    ) from exc
                time.sleep(self.policy.backoff(attempt + 1))
                continue
            if not response.get("ok"):
                message = response.get("error", "unknown server error")
                if response.get("reason") == "overloaded":
                    raise ProbeOverloadedError(message)
                raise ProbeError(message)
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------- metadata

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def info(self) -> dict:
        """Server metadata (cached: game, rules, ids, positions)."""
        if self._info is None:
            response = self.request({"op": "info"})
            response.pop("ok")
            response["ids"] = [
                DatabaseSet._parse_id(str(i)) for i in response["ids"]
            ]
            self._info = response
        return self._info

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    @property
    def game_name(self) -> str:
        return self.info()["game"]

    @property
    def rules(self) -> str:
        return self.info()["rules"]

    def ids(self) -> list:
        return list(self.info()["ids"])

    def __contains__(self, db_id) -> bool:
        return db_id in self.info()["ids"]

    def positions(self, db_id) -> int:
        return int(self.info()["positions"][str(db_id)])

    # ---------------------------------------------------------------- probes

    def probe(self, db_id, index: int) -> int:
        return int(self.request(
            {"op": "probe", "db": db_id, "index": int(index)}
        )["value"])

    def probe_many(self, positions) -> np.ndarray:
        # Pairs travel as handed over: a tuple encodes as a JSON array,
        # and the server casts every index once, as an array.
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        values = self.request(
            {"op": "probe_many", "positions": positions}
        )["values"]
        return np.asarray(values, dtype=np.int16)

    def depth_of(self, db_id, index: int):
        return None  # distances are not served over the wire

    def best_move(self, board) -> dict:
        """Server-side best move: ``{"value", "pits", "moves"}``."""
        board = [int(x) for x in np.asarray(board).reshape(12)]
        response = self.request({"op": "best_move", "board": board})
        response.pop("ok")
        return response

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Close the connection; safe to call any number of times."""
        self._closed = True
        self._drop_socket()

    def __enter__(self) -> "ProbeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
