"""repro.serve — paged, cached endgame-database serving.

Turns solved databases into a servable artifact: a paged on-disk format
with O(1) block access (:mod:`~repro.serve.pagedstore`), an LRU block
cache with a byte budget (:mod:`~repro.serve.cache`), a batched probe
service over either storage backend (:mod:`~repro.serve.service`), and
the wire constants shared with the binary frames
(:mod:`~repro.serve.protocol`).  The server and its client live in
:mod:`repro.aserve`.  See docs/SERVING.md.
"""

from .cache import BlockCache
from .client import ProbeError
from .pagedstore import DEFAULT_BLOCK_POSITIONS, PagedStore, write_paged
from .protocol import MAX_MESSAGE_BYTES, ProtocolError
from .service import MemoryBackend, PagedBackend, ProbeService

__all__ = [
    "BlockCache",
    "DEFAULT_BLOCK_POSITIONS",
    "MAX_MESSAGE_BYTES",
    "MemoryBackend",
    "PagedBackend",
    "PagedStore",
    "ProbeError",
    "ProbeService",
    "ProtocolError",
    "write_paged",
]
