"""Wire constants and errors shared by the probe frames.

:data:`MAX_MESSAGE_BYTES`, :data:`BINARY_VERSION` and the
:class:`ProtocolError` family live here rather than in
:mod:`repro.aserve.frames` so that :mod:`repro.serve` never imports
:mod:`repro.aserve`.

:func:`send_message` / :func:`recv_message` frame one JSON object with
the same big-endian u32 length prefix.  No server or client path uses
them: the probe server answers binary frames only.  They remain for the
benchmark's JSON encode/decode layer probe.
"""

from __future__ import annotations

import json
import socket
import struct

__all__ = [
    "ProtocolError",
    "OversizedFrameError",
    "BINARY_VERSION",
    "MAX_MESSAGE_BYTES",
    "send_message",
    "recv_message",
]

#: Upper bound on one message; a 64 MiB batch is ~4M probes.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: First payload byte of a binary-protocol frame (:mod:`repro.aserve`);
#: the server refuses any frame that opens with another byte.
BINARY_VERSION = 0xB1

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed frame: oversized, truncated, or undecodable."""


class OversizedFrameError(ProtocolError):
    """A frame's declared length exceeds the receiver's limit.

    Raised *before* any payload allocation — the length prefix alone is
    enough to reject, so a hostile 4 GiB declaration costs 4 bytes of
    buffering, not 4 GiB.
    """


def _scalar(obj):
    """``json.dumps`` fallback: a numpy scalar (a probe index taken from
    an array) travels as the Python number it holds."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable"
    )


def send_message(sock: socket.socket, message: dict,
                 max_bytes: int = MAX_MESSAGE_BYTES) -> None:
    """Send one length-prefixed JSON message."""
    payload = json.dumps(
        message, separators=(",", ":"), default=_scalar
    ).encode()
    if len(payload) > max_bytes:
        raise OversizedFrameError(
            f"message of {len(payload)} bytes exceeds limit ({max_bytes})"
        )
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_message(sock: socket.socket,
                 max_bytes: int = MAX_MESSAGE_BYTES) -> dict | None:
    """Receive one message; ``None`` on clean EOF.

    A socket timeout propagates to the caller (a client must not spin
    forever on a hung server).  ``max_bytes`` caps the accepted frame
    length; an oversized declaration raises :class:`OversizedFrameError`
    without buffering any payload.
    """
    header = _recv_exactly(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > max_bytes:
        raise OversizedFrameError(
            f"frame of {length} bytes exceeds limit ({max_bytes})"
        )
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-message")
    try:
        message = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    received = 0
    while received < n:
        data = sock.recv(n - received)
        if not data:
            if received == 0:
                return None
            raise ProtocolError(
                f"connection closed after {received} of {n} bytes"
            )
        chunks.append(data)
        received += len(data)
    return b"".join(chunks)
