"""The error types every probe client raises.

A probe client — the pipelined
:class:`~repro.aserve.client.BinaryProbeClient`, the mmap
:class:`~repro.aserve.local.LocalProbeClient`, the cluster
:class:`~repro.cluster.router.ShardRouter` — reports failure as a
:class:`ProbeError`.  The two subclasses tell a caller whether trying
another endpoint can help: :class:`ProbeTransportError` (the connection
failed) and :class:`ProbeOverloadedError` (the server shed the request).
"""

from __future__ import annotations

__all__ = ["ProbeError", "ProbeTransportError", "ProbeOverloadedError"]


class ProbeError(RuntimeError):
    """A probe failed: the server rejected the request (an error
    frame) or the connection could not be (re-)established
    within the policy's bounds.  Every raw socket error surfaces as this
    type."""


class ProbeTransportError(ProbeError):
    """The *transport* failed: the connection could not be established,
    or it dropped and the bounded replays ran out.  Distinct from an
    application rejection (plain :class:`ProbeError`) because retrying
    elsewhere can help — the cluster
    :class:`~repro.cluster.router.ShardRouter` fails over to a replica
    on this type only; a rejection would be identical on every replica
    and is re-raised as-is."""


class ProbeOverloadedError(ProbeError):
    """The server shed this request under load (an error frame with
    the OVERLOADED flag).  Deliberately *not*
    a :class:`ProbeTransportError`: the endpoint is alive and the
    connection survives, so the router tries the next replica
    immediately without recording a circuit-breaker failure — shedding
    is the server protecting itself, not the server dying."""
