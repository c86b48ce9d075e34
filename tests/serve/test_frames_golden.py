"""Golden bytes of the binary probe-frame wire format.

Every encoder in :mod:`repro.aserve.frames` is pinned to an exact byte
string, written field by field (``bytes.fromhex`` skips the spaces), and
every pinned frame is decoded back.  This test is the wire contract: a
changed struct format, dtype, opcode or flag bit changes bytes that
peers on another revision would mis-parse, and fails here first.  A
deliberate protocol change edits these literals, frames.py and the
frame-layout table in docs/SERVING.md together.
"""

from collections import namedtuple

import numpy as np
import pytest

from repro.aserve import frames

Move = namedtuple("Move", "pit captures value")

BOARD = [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 2]

#: name -> (payload, golden hex).  Header: version, opcode, flags
#: (big-endian u16), seq (big-endian u32); bodies are little-endian.
REQUESTS = {
    "ping": (frames.encode_ping(1), "b1 01 0000 00000001"),
    "info": (frames.encode_info(2), "b1 02 0000 00000002"),
    "probe": (
        frames.encode_probe(3, 4, 7),
        "b1 03 0000 00000003  0100 34  0700000000000000",
    ),
    "probe_many": (
        frames.encode_probe_many(4, [(4, 7), ("kalah", 300), (4, -1)]),
        "b1 04 0000 00000004  0200 0100 34 0500 6b616c6168  03000000"
        "  0000 0700000000000000  0100 2c01000000000000"
        "  0000 ffffffffffffffff",
    ),
    "depth_of": (
        frames.encode_depth_of(5, 4, 7),
        "b1 05 0000 00000005  0100 34  0700000000000000",
    ),
    "best_move": (
        frames.encode_best_move(6, BOARD),
        "b1 06 0000 00000006  0000 0000 0000 0000 0000 0100"
        " 0100 0000 0000 0000 0000 0200",
    ),
    "stats": (frames.encode_stats(7), "b1 07 0000 00000007"),
    "probe_many_packed": (
        frames.encode_probe_many_packed(
            8, [4, 5], np.array([1, 0]), np.array([2**40, 9])
        ),
        "b1 04 0000 00000008  0200 0100 34 0100 35  02000000"
        "  0100 0000000000010000  0000 0900000000000000",
    ),
}

RESPONSES = {
    "pong": (frames.encode_pong(1), "b1 01 0000 00000001"),
    "value": (frames.encode_value(3, -5), "b1 03 0000 00000003  fbff"),
    "values": (
        frames.encode_values(4, [3, -2, 0]),
        "b1 04 0000 00000004  03000000  0300 feff 0000",
    ),
    "depth": (frames.encode_depth(5, 11), "b1 05 0000 00000005  0b000000"),
    "no_depth": (
        frames.encode_depth(5, None), "b1 05 0000 00000005  00000080",
    ),
    "json_body": (
        frames.encode_json_body(7, frames.OP_STATS,
                                {"probes": 3, "ok": True}),
        "b1 07 0000 00000007  7b2270726f626573223a332c226f6b223a747275657d",
    ),
    "best_move_result": (
        frames.encode_best_move_result(
            6, 2, [Move(0, 0, -1), Move(5, 2, 2)]
        ),
        "b1 06 0000 00000006  0200 0200  00 0000 ffff  05 0200 0200",
    ),
    "error": (
        frames.encode_error(3, frames.OP_PROBE, "no db 9"),
        "b1 03 0001 00000003  6e6f2064622039",
    ),
    "overloaded": (
        frames.encode_error(4, frames.OP_PROBE_MANY, "busy",
                            frames.FLAG_OVERLOADED),
        "b1 04 0003 00000004  62757379",
    ),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_request_bytes(name):
    payload, golden = REQUESTS[name]
    assert payload.hex() == bytes.fromhex(golden).hex()


@pytest.mark.parametrize("name", sorted(RESPONSES))
def test_response_bytes(name):
    payload, golden = RESPONSES[name]
    assert payload.hex() == bytes.fromhex(golden).hex()


def test_length_prefix_is_big_endian():
    assert frames.pack_frame(frames.encode_ping(1)) == bytes.fromhex(
        "00000008  b1 01 0000 00000001"
    )


class TestRequestRoundTrip:
    def decode(self, name):
        return frames.decode_request(bytes.fromhex(REQUESTS[name][1]))

    @pytest.mark.parametrize("name, opcode, seq", [
        ("ping", frames.OP_PING, 1),
        ("info", frames.OP_INFO, 2),
        ("stats", frames.OP_STATS, 7),
    ])
    def test_bodyless(self, name, opcode, seq):
        request = self.decode(name)
        assert (request.opcode, request.seq) == (opcode, seq)

    @pytest.mark.parametrize("name, opcode, seq", [
        ("probe", frames.OP_PROBE, 3),
        ("depth_of", frames.OP_DEPTH_OF, 5),
    ])
    def test_single_position(self, name, opcode, seq):
        request = self.decode(name)
        assert (request.opcode, request.seq) == (opcode, seq)
        assert (request.db, request.index) == (4, 7)

    def test_probe_many(self):
        request = self.decode("probe_many")
        assert (request.opcode, request.seq) == (frames.OP_PROBE_MANY, 4)
        assert request.directory == [4, "kalah"]
        assert request.db_slots.tolist() == [0, 1, 0]
        assert request.indices.tolist() == [7, 300, -1]

    def test_probe_many_packed(self):
        request = self.decode("probe_many_packed")
        assert (request.opcode, request.seq) == (frames.OP_PROBE_MANY, 8)
        assert request.directory == [4, 5]
        assert request.db_slots.tolist() == [1, 0]
        assert request.indices.tolist() == [2**40, 9]

    def test_best_move(self):
        request = self.decode("best_move")
        assert (request.opcode, request.seq) == (frames.OP_BEST_MOVE, 6)
        assert request.board.tolist() == BOARD


class TestResponseRoundTrip:
    def decode(self, name):
        return frames.decode_response(bytes.fromhex(RESPONSES[name][1]))

    def test_pong(self):
        response = self.decode("pong")
        assert (response.opcode, response.seq) == (frames.OP_PING, 1)
        assert response.value is True

    def test_value(self):
        response = self.decode("value")
        assert (response.opcode, response.seq) == (frames.OP_PROBE, 3)
        assert response.value == -5

    def test_values(self):
        response = self.decode("values")
        assert (response.opcode, response.seq) == (frames.OP_PROBE_MANY, 4)
        assert response.values.dtype == np.int16
        assert response.values.tolist() == [3, -2, 0]

    def test_depths(self):
        assert self.decode("depth").depth == 11
        assert self.decode("no_depth").depth is None

    def test_json_body(self):
        response = self.decode("json_body")
        assert (response.opcode, response.seq) == (frames.OP_STATS, 7)
        assert response.obj == {"probes": 3, "ok": True}

    def test_best_move_result(self):
        response = self.decode("best_move_result")
        assert (response.opcode, response.seq) == (frames.OP_BEST_MOVE, 6)
        assert response.value == 2
        assert response.moves.tolist() == [(0, 0, -1), (5, 2, 2)]

    def test_error(self):
        response = self.decode("error")
        assert (response.opcode, response.seq) == (frames.OP_PROBE, 3)
        assert response.error == "no db 9"
        assert response.overloaded is False

    def test_overloaded_error(self):
        response = self.decode("overloaded")
        assert (response.opcode, response.seq) == (frames.OP_PROBE_MANY, 4)
        assert response.error == "busy"
        assert response.overloaded is True
