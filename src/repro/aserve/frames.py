"""Versioned struct-packed binary frames for the probe protocol.

The probe server's one wire format: fixed-width records and numpy bulk
encode/decode for batches — no per-probe text anywhere on the hot path.

Every frame is a payload prefixed by its byte length as a big-endian
uint32 (64 MiB cap).  The payload's **first byte** is
:data:`BINARY_VERSION` (``0xB1``); the server refuses a frame that opens
with any other byte::

    4 bytes   length prefix (big-endian uint32)
    1 byte    version  = 0xB1
    1 byte    opcode   (OP_PING .. OP_STATS)
    2 bytes   flags    (big-endian; bit 0 = error on responses)
    4 bytes   sequence id (big-endian; echoed by the response)
    ...       opcode-specific body (little-endian fixed-width fields)

The sequence id is what makes pipelining work: a client may have many
frames in flight on one connection and matches each response to its
request by ``seq``, regardless of arrival order.  Sequence id 0 is
reserved: no request carries it, and an error frame on it refuses the
whole connection (capacity, oversized or unknown frame) just before the
server closes it.

Bodies (requests → responses):

=========== ============================================ ================
opcode       request body                                 response body
=========== ============================================ ================
ping         —                                            —
info         —                                            JSON object
probe        id, i64 index                                i16 value
probe_many   directory + u32 count + count×(u2,i8)        u32 count + count×i16
depth_of     id, i64 index                                i32 (INT32_MIN = none)
best_move    12×i16 pit counts                            i16 value, u16 n, n×(u1,i2,i2)
stats        —                                            JSON object
=========== ============================================ ================

``id`` is a u16 length + UTF-8 database id (parsed back with the same
rule as :class:`~repro.db.store.DatabaseSet`).  ``probe_many`` carries a
per-frame *directory* of database ids (u16 count, then ids), so its
records are fixed-width ``(u16 directory slot, i64 index)`` structs that
encode and decode as one ``ndarray.tobytes`` / ``np.frombuffer`` each.
Error responses set :data:`FLAG_ERROR` and carry a UTF-8 message.

``info`` and ``stats`` responses carry JSON *inside* a binary frame:
they are cold metadata operations whose schemas change more often than
any fixed-width layout should.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..db.store import DatabaseSet
from ..serve.protocol import BINARY_VERSION, MAX_MESSAGE_BYTES, ProtocolError
from ..serve.service import split_positions

__all__ = [
    "BINARY_VERSION",
    "FLAG_ERROR",
    "FLAG_OVERLOADED",
    "FrameError",
    "HEADER",
    "LENGTH",
    "MOVE_DTYPE",
    "NO_DEPTH",
    "OP_BEST_MOVE",
    "OP_DEPTH_OF",
    "OP_INFO",
    "OP_NAMES",
    "OP_PING",
    "OP_PROBE",
    "OP_PROBE_MANY",
    "OP_STATS",
    "RECORD_DTYPE",
    "Request",
    "Response",
    "VALUE_DTYPE",
    "VERSION_BYTE",
    "decode_request",
    "decode_response",
    "pack_frame",
]

#: Outer length prefix.
LENGTH = struct.Struct(">I")

#: Payload header: version, opcode, flags, sequence id.
HEADER = struct.Struct(">BBHI")

#: The version byte as a bytes object, for first-byte dispatch.
VERSION_BYTE = bytes([BINARY_VERSION])

#: Response flag bit 0: the body is a UTF-8 error message.
FLAG_ERROR = 0x0001

#: Response flag bit 1 (always with :data:`FLAG_ERROR`): the server
#: shed this request under load — the request was well-formed, the
#: connection survives, and a retry elsewhere (or later) can succeed.
FLAG_OVERLOADED = 0x0002

OP_PING = 1
OP_INFO = 2
OP_PROBE = 3
OP_PROBE_MANY = 4
OP_DEPTH_OF = 5
OP_BEST_MOVE = 6
OP_STATS = 7

#: Opcode → wire-protocol op name (metrics and error messages).
OP_NAMES = {
    OP_PING: "ping",
    OP_INFO: "info",
    OP_PROBE: "probe",
    OP_PROBE_MANY: "probe_many",
    OP_DEPTH_OF: "depth_of",
    OP_BEST_MOVE: "best_move",
    OP_STATS: "stats",
}

#: One probe_many record: directory slot + position index.
RECORD_DTYPE = np.dtype([("db", "<u2"), ("index", "<i8")])

#: Probe values on the wire (matches the paged-store dtype).
VALUE_DTYPE = np.dtype("<i2")

#: One evaluated move in a best_move response.
MOVE_DTYPE = np.dtype([("pit", "<u1"), ("captures", "<i2"), ("value", "<i2")])

#: depth_of sentinel for "no depth available" (i32 minimum).
NO_DEPTH = -(2**31)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I16 = struct.Struct("<h")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_BEST = struct.Struct("<hH")


class FrameError(ProtocolError):
    """A binary frame that cannot be decoded: truncated header or body,
    unknown opcode, counts that disagree with the payload length."""


def pack_frame(payload: bytes) -> bytes:
    """Prefix one payload with the big-endian u32 length header."""
    if len(payload) > MAX_MESSAGE_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds limit ({MAX_MESSAGE_BYTES})"
        )
    return LENGTH.pack(len(payload)) + payload


def _header(opcode: int, seq: int, flags: int = 0) -> bytes:
    return HEADER.pack(BINARY_VERSION, opcode, flags, seq & 0xFFFFFFFF)


def _encode_id(db_id) -> bytes:
    raw = str(db_id).encode()
    return _U16.pack(len(raw)) + raw


def _decode_id(body, offset: int):
    (n,) = _U16.unpack_from(body, offset)
    offset += _U16.size
    raw = bytes(body[offset : offset + n])
    if len(raw) != n:
        raise FrameError("truncated database id")
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise FrameError(f"database id is not UTF-8: {exc}") from exc
    return DatabaseSet._parse_id(text), offset + n


# ------------------------------------------------------------- requests


def encode_ping(seq: int) -> bytes:
    """Request payload for ``ping``."""
    return _header(OP_PING, seq)


def encode_info(seq: int) -> bytes:
    """Request payload for ``info``."""
    return _header(OP_INFO, seq)


def encode_stats(seq: int) -> bytes:
    """Request payload for ``stats``."""
    return _header(OP_STATS, seq)


def encode_probe(seq: int, db_id, index: int) -> bytes:
    """Request payload for one ``probe``."""
    return _header(OP_PROBE, seq) + _encode_id(db_id) + _I64.pack(int(index))


def encode_depth_of(seq: int, db_id, index: int) -> bytes:
    """Request payload for one ``depth_of``."""
    return _header(OP_DEPTH_OF, seq) + _encode_id(db_id) + _I64.pack(int(index))


def encode_probe_many(seq: int, positions) -> bytes:
    """Request payload for a ``[(db_id, index), ...]`` batch.

    Splits the list once (:func:`~repro.serve.service.split_positions`),
    then delegates to :func:`encode_probe_many_packed` for the bulk
    record encode.
    """
    return encode_probe_many_packed(seq, *split_positions(positions))


def encode_probe_many_packed(seq: int, directory, db_slots, indices) -> bytes:
    """Request payload for a batch already split into parallel arrays.

    ``directory`` lists the database ids; ``db_slots[i]`` is the
    directory slot of probe ``i`` and ``indices[i]`` its position.  The
    records are bulk-encoded in one ``tobytes`` — this is the zero-
    Python-per-probe path the client and router use.
    """
    if len(directory) > 0xFFFF:
        raise FrameError("probe_many directory exceeds 65535 databases")
    parts = [_header(OP_PROBE_MANY, seq), _U16.pack(len(directory))]
    parts.extend(_encode_id(db_id) for db_id in directory)
    records = np.empty(len(indices), dtype=RECORD_DTYPE)
    records["db"] = db_slots
    records["index"] = indices
    parts.append(_U32.pack(records.shape[0]))
    parts.append(records.tobytes())
    return b"".join(parts)


def encode_best_move(seq: int, board) -> bytes:
    """Request payload for ``best_move`` (12 pit counts)."""
    arr = np.ascontiguousarray(np.asarray(board).reshape(12), dtype=VALUE_DTYPE)
    return _header(OP_BEST_MOVE, seq) + arr.tobytes()


class Request:
    """One decoded binary request."""

    __slots__ = ("opcode", "seq", "db", "index", "directory", "db_slots",
                 "indices", "board")

    def __init__(self, opcode, seq, db=None, index=None, directory=None,
                 db_slots=None, indices=None, board=None):
        self.opcode = opcode
        self.seq = seq
        self.db = db
        self.index = index
        self.directory = directory
        self.db_slots = db_slots
        self.indices = indices
        self.board = board


def peek_seq(payload) -> int:
    """Best-effort sequence id of a possibly-malformed frame (0 when the
    header itself is unreadable) — lets an error response still carry
    the sequence the client is waiting on."""
    if len(payload) >= HEADER.size:
        return HEADER.unpack_from(payload)[3]
    return 0


def peek_opcode(payload) -> int:
    """Best-effort opcode of a possibly-malformed frame (0 if unknown)."""
    if len(payload) >= 2:
        return payload[1]
    return 0


def decode_request(payload) -> Request:
    """Decode one request payload; raises :class:`FrameError` on any
    malformation (the caller answers an error frame — framing stays
    intact because the length prefix already delimited this frame)."""
    if len(payload) < HEADER.size:
        raise FrameError(
            f"binary frame of {len(payload)} bytes is shorter than the "
            f"{HEADER.size}-byte header"
        )
    version, opcode, _flags, seq = HEADER.unpack_from(payload)
    if version != BINARY_VERSION:
        raise FrameError(f"unknown binary version 0x{version:02x}")
    body = memoryview(payload)[HEADER.size:]
    try:
        if opcode in (OP_PING, OP_INFO, OP_STATS):
            if len(body) != 0:
                raise FrameError(
                    f"{OP_NAMES[opcode]} request carries an unexpected "
                    f"{len(body)}-byte body"
                )
            return Request(opcode, seq)
        if opcode in (OP_PROBE, OP_DEPTH_OF):
            db_id, offset = _decode_id(body, 0)
            (index,) = _I64.unpack_from(body, offset)
            if offset + _I64.size != len(body):
                raise FrameError(f"{OP_NAMES[opcode]} request has trailing bytes")
            return Request(opcode, seq, db=db_id, index=index)
        if opcode == OP_PROBE_MANY:
            return _decode_probe_many(seq, body)
        if opcode == OP_BEST_MOVE:
            if len(body) != 12 * VALUE_DTYPE.itemsize:
                raise FrameError(
                    f"best_move request body is {len(body)} bytes, "
                    f"expected 12 int16 pit counts"
                )
            board = np.frombuffer(body, dtype=VALUE_DTYPE).astype(np.int64)
            return Request(opcode, seq, board=board)
    except struct.error as exc:
        raise FrameError(f"truncated {OP_NAMES.get(opcode, opcode)} request: "
                         f"{exc}") from exc
    raise FrameError(f"unknown opcode {opcode}")


def _decode_probe_many(seq: int, body) -> Request:
    (n_dbs,) = _U16.unpack_from(body, 0)
    offset = _U16.size
    directory = []
    for _ in range(n_dbs):
        db_id, offset = _decode_id(body, offset)
        directory.append(db_id)
    (count,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    need = count * RECORD_DTYPE.itemsize
    if len(body) - offset != need:
        raise FrameError(
            f"probe_many body carries {len(body) - offset} record bytes, "
            f"expected {need} for {count} records"
        )
    records = np.frombuffer(body, dtype=RECORD_DTYPE, count=count,
                            offset=offset)
    if count and n_dbs == 0:
        raise FrameError("probe_many records without a database directory")
    if count and int(records["db"].max()) >= n_dbs:
        raise FrameError("record references a db slot beyond the directory")
    return Request(OP_PROBE_MANY, seq, directory=directory,
                   db_slots=records["db"], indices=records["index"])


# ------------------------------------------------------------ responses


def encode_error(seq: int, opcode: int, message: str,
                 flags: int = 0) -> bytes:
    """Error response payload: :data:`FLAG_ERROR` (plus any extra
    ``flags``, e.g. :data:`FLAG_OVERLOADED`) + UTF-8 message."""
    opcode = opcode if opcode in OP_NAMES else OP_PING
    return _header(opcode, seq, FLAG_ERROR | flags) + str(message).encode()


def encode_pong(seq: int) -> bytes:
    """Response payload for ``ping``."""
    return _header(OP_PING, seq)


def encode_value(seq: int, value: int) -> bytes:
    """Response payload for one ``probe``."""
    return _header(OP_PROBE, seq) + _I16.pack(int(value))


def encode_values(seq: int, values) -> bytes:
    """Response payload for ``probe_many``: one bulk ``tobytes``."""
    values = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
    return (_header(OP_PROBE_MANY, seq) + _U32.pack(values.shape[0])
            + values.tobytes())


def encode_depth(seq: int, depth) -> bytes:
    """Response payload for ``depth_of`` (:data:`NO_DEPTH` = ``None``)."""
    return _header(OP_DEPTH_OF, seq) + _I32.pack(
        NO_DEPTH if depth is None else int(depth)
    )


def encode_json_body(seq: int, opcode: int, obj: dict) -> bytes:
    """Response payload carrying a JSON object (``info`` / ``stats``)."""
    return _header(opcode, seq) + json.dumps(
        obj, separators=(",", ":")
    ).encode()


def encode_best_move_result(seq: int, value: int, moves) -> bytes:
    """Response payload for ``best_move``: value + packed move records."""
    parts = [_header(OP_BEST_MOVE, seq), _BEST.pack(int(value), len(moves))]
    records = np.empty(len(moves), dtype=MOVE_DTYPE)
    for i, move in enumerate(moves):
        records[i] = (move.pit, move.captures, move.value)
    parts.append(records.tobytes())
    return b"".join(parts)


class Response:
    """One decoded binary response; exactly one payload field is set."""

    __slots__ = ("opcode", "seq", "error", "value", "values", "depth",
                 "obj", "moves", "overloaded")

    def __init__(self, opcode, seq, error=None, value=None, values=None,
                 depth=None, obj=None, moves=None, overloaded=False):
        self.opcode = opcode
        self.seq = seq
        self.error = error
        self.value = value
        self.values = values
        self.depth = depth
        self.obj = obj
        self.moves = moves
        self.overloaded = overloaded


def decode_response(payload) -> Response:
    """Decode one response payload; raises :class:`FrameError` when the
    frame cannot be read (the client treats that as a transport loss —
    a desynchronized stream cannot be trusted for any pending seq)."""
    if len(payload) < HEADER.size:
        raise FrameError(
            f"binary response of {len(payload)} bytes is shorter than the "
            f"{HEADER.size}-byte header"
        )
    version, opcode, flags, seq = HEADER.unpack_from(payload)
    if version != BINARY_VERSION:
        raise FrameError(f"unknown binary version 0x{version:02x}")
    body = memoryview(payload)[HEADER.size:]
    if flags & FLAG_ERROR:
        return Response(opcode, seq,
                        error=bytes(body).decode(errors="replace"),
                        overloaded=bool(flags & FLAG_OVERLOADED))
    try:
        if opcode == OP_PING:
            return Response(opcode, seq, value=True)
        if opcode == OP_PROBE:
            return Response(opcode, seq, value=_I16.unpack_from(body)[0])
        if opcode == OP_PROBE_MANY:
            (count,) = _U32.unpack_from(body, 0)
            need = count * VALUE_DTYPE.itemsize
            if len(body) - _U32.size != need:
                raise FrameError(
                    f"probe_many response carries {len(body) - _U32.size} "
                    f"value bytes, expected {need}"
                )
            values = np.frombuffer(body, dtype=VALUE_DTYPE, count=count,
                                   offset=_U32.size)
            return Response(opcode, seq, values=values.astype(np.int16,
                                                              copy=False))
        if opcode == OP_DEPTH_OF:
            (depth,) = _I32.unpack_from(body)
            return Response(opcode, seq,
                            depth=None if depth == NO_DEPTH else depth)
        if opcode in (OP_INFO, OP_STATS):
            try:
                obj = json.loads(bytes(body).decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError(f"bad JSON body in {OP_NAMES[opcode]} "
                                 f"response: {exc}") from exc
            return Response(opcode, seq, obj=obj)
        if opcode == OP_BEST_MOVE:
            value, count = _BEST.unpack_from(body, 0)
            need = count * MOVE_DTYPE.itemsize
            if len(body) - _BEST.size != need:
                raise FrameError("best_move response length disagrees with "
                                 "its move count")
            moves = np.frombuffer(body, dtype=MOVE_DTYPE, count=count,
                                  offset=_BEST.size)
            return Response(opcode, seq, value=value, moves=moves)
    except struct.error as exc:
        raise FrameError(
            f"truncated {OP_NAMES.get(opcode, opcode)} response: {exc}"
        ) from exc
    raise FrameError(f"unknown opcode {opcode} in response")
