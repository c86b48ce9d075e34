"""Declarative schema of the binary probe-frame wire format.

:mod:`repro.aserve.frames` implements the wire format; this module
*declares* it, as plain data, in one place — the same pattern as the
metric-name catalog (:mod:`repro.staticcheck.catalog` →
``repro.obs.names``).  Three artifacts must agree on the layout:

* the struct format strings and numpy dtypes in ``frames.py`` (what
  actually goes on the wire),
* this schema (the reviewable contract),
* the frame-layout table in ``docs/SERVING.md`` (what operators read).

The RA011 checker (:mod:`repro.staticcheck.rules_frameschema`)
cross-checks all three on every run: a constant edited in ``frames.py``
without a matching schema (and doc) update is a lint failure, not a
silent protocol fork.  A wire-format change therefore always lands as
a three-file diff, which is exactly what a reviewer wants to see.

Nothing here imports ``frames`` (and vice versa): the schema must stay
usable by the checker even when ``frames.py`` is mid-edit or broken.
"""

from __future__ import annotations

__all__ = [
    "FRAME_STRUCTS",
    "FRAME_DTYPES",
    "OPCODES",
    "FLAGS",
    "HEADER_FIELDS",
    "PROTOCOL_VERSION",
    "header_layout",
]

#: The per-frame protocol version byte; a frame opening with any
#: other byte is refused.
PROTOCOL_VERSION = 0xB1

#: Every ``struct.Struct`` format string in ``frames.py``, by the name
#: it is bound to there.  Big-endian outer framing and header (network
#: order); little-endian bodies (the numpy arrays' native layout).
FRAME_STRUCTS = {
    "LENGTH": ">I",     # outer length prefix
    "HEADER": ">BBHI",  # version, opcode, flags, sequence id
    "_U16": "<H",       # database-id length, directory count
    "_U32": "<I",       # record / value counts
    "_I16": "<h",       # probe values
    "_I32": "<i",       # depth_of response
    "_I64": "<q",       # position indices
    "_BEST": "<hH",     # best_move response: value + move count
}

#: Every numpy dtype in ``frames.py``, by bound name.  Dtype specs are
#: given in the form ``np.dtype`` accepts, so the checker can compare
#: structurally (field names, formats, itemsize) rather than textually.
FRAME_DTYPES = {
    "RECORD_DTYPE": [("db", "<u2"), ("index", "<i8")],
    "VALUE_DTYPE": "<i2",
    "MOVE_DTYPE": [("pit", "<u1"), ("captures", "<i2"), ("value", "<i2")],
}

#: Request/response opcodes (``OP_*`` constants in ``frames.py``).
OPCODES = {
    "OP_PING": 1,
    "OP_INFO": 2,
    "OP_PROBE": 3,
    "OP_PROBE_MANY": 4,
    "OP_DEPTH_OF": 5,
    "OP_BEST_MOVE": 6,
    "OP_STATS": 7,
}

#: Response flag bits (``FLAG_*`` constants in ``frames.py``).
FLAGS = {
    "FLAG_ERROR": 0x0001,
    "FLAG_OVERLOADED": 0x0002,
}

#: Header field names, in wire order, matching ``FRAME_STRUCTS["HEADER"]``
#: one format character each.  The docs table is validated against the
#: offsets/sizes these derive.
HEADER_FIELDS = ("version", "opcode", "flags", "seq")

#: struct format character → byte size (the subset the header uses).
_CHAR_SIZES = {"B": 1, "H": 2, "I": 4, "h": 2, "i": 4, "q": 8, "Q": 8}


def header_layout() -> list:
    """``[(field, offset, size), ...]`` of the frame header, plus a
    final ``("body", offset, None)`` row — the shape of the
    docs/SERVING.md frame-layout table."""
    fmt = FRAME_STRUCTS["HEADER"].lstrip("><=!@")
    if len(fmt) != len(HEADER_FIELDS):
        raise ValueError(
            f"HEADER format {fmt!r} has {len(fmt)} fields, "
            f"HEADER_FIELDS names {len(HEADER_FIELDS)}"
        )
    rows = []
    offset = 0
    for field, char in zip(HEADER_FIELDS, fmt):
        size = _CHAR_SIZES[char]
        rows.append((field, offset, size))
        offset += size
    rows.append(("body", offset, None))
    return rows
