"""JSON request handling for the probe server.

:class:`~repro.aserve.server.AsyncProbeServer` answers JSON frames next
to binary ones: its version-byte fallback hands every decoded JSON
request to one :class:`JsonRequestHandler`, which holds the ops, the
response shapes and the error contract of the JSON frame kind.  The
handler touches no sockets, so it is testable on its own.
"""

from __future__ import annotations

from ..obs import NULL_METRICS

__all__ = ["JsonRequestHandler"]


def _overloaded(budget) -> dict:
    """The well-formed load-shedding answer to a JSON frame.

    ``reason`` is machine-readable — clients surface it as
    :class:`~repro.serve.client.ProbeOverloadedError` so routers can
    fail over immediately without treating the endpoint as dead.
    """
    return {
        "ok": False,
        "error": f"server overloaded ({budget} requests in flight)",
        "reason": "overloaded",
    }


class JsonRequestHandler:
    """Map one decoded JSON request dict to a JSON response dict.

    Pure request/response logic: no sockets, no threads.  Metrics land
    in whatever scope the owning server passes (``aserve.server``).  Any
    exception a handler raises is isolated to an ``ok: false`` response.
    """

    def __init__(self, service, metrics=None):
        self.service = service
        self._metrics = NULL_METRICS if metrics is None else metrics

    def handle(self, request: dict) -> dict:
        """Answer one request; never raises."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            self._metrics.inc("errors")
            return {"ok": False, "error": f"unknown op {op!r}"}
        self._metrics.inc("requests")
        self._metrics.inc(f"op.{op}")
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 — isolation: one bad
            # request must answer ok:false, never kill the connection.
            self._metrics.inc("errors")
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "pong": True}

    def _op_info(self, request: dict) -> dict:
        service = self.service
        response = {
            "ok": True,
            "game": service.game_name,
            "rules": service.rules,
            "backend": service.backend_kind,
            "ids": service.ids(),
            "positions": {str(i): service.positions(i) for i in service.ids()},
        }
        store = getattr(service.backend, "store", None)
        if store is not None:
            response["codec"] = store.codec
        return response

    def _op_probe(self, request: dict) -> dict:
        value = self.service.probe(request["db"], int(request["index"]))
        return {"ok": True, "value": value}

    def _op_probe_many(self, request: dict) -> dict:
        values = self.service.probe_many(request["positions"])
        return {"ok": True, "values": values.tolist()}

    def _op_best_move(self, request: dict) -> dict:
        board = request["board"]
        if not isinstance(board, list) or len(board) != 12:
            raise ValueError("board must be 12 pit counts")
        value, moves = self.service.best_moves(board)
        return {
            "ok": True,
            "value": int(value),
            "pits": [m.pit for m in moves],
            "moves": [
                {"pit": m.pit, "captures": m.captures, "value": m.value}
                for m in moves
            ],
        }

    def _op_stats(self, request: dict) -> dict:
        return {"ok": True, "stats": self.service.stats()}
