"""Sharded serving cluster: split, launch, route, and self-heal.

The paper's core claim is that distributing the endgame database over
many machines' memories makes interactive probing feasible at database
sizes no single machine can hold.  This package is that claim's serving
shape:

* :mod:`repro.cluster.manifest` — split one paged store into per-shard
  page files through a :class:`~repro.core.partition.Partition`, and
  the shard manifest that records the split;
* :mod:`repro.cluster.launch` — run N shard
  :class:`~repro.aserve.server.AsyncProbeServer` processes (plus
  optional replicas) and publish their addresses as a topology file;
* :mod:`repro.cluster.router` — the :class:`ShardRouter` that hashes
  positions through the recorded partition, scatter-gathers batched
  probes across shards, and fails over on endpoint health;
* :mod:`repro.cluster.health` — per-endpoint circuit breakers and the
  liveness probe (the router reinstates restarted endpoints through
  these);
* :mod:`repro.cluster.supervise` — the monitor thread that detects
  dead or wedged shard servers and respawns them on their original
  ports, with backoff and a flap detector.

See docs/CLUSTER.md for the operational story (including the failure
model) and the ``repro cluster`` CLI (``split`` | ``up`` | ``probe``).
"""

from .health import CircuitBreaker, EndpointHealth, probe_endpoint
from .manifest import ShardManifest, split_store
from .router import ShardRouter
from .supervise import ClusterMonitor, RestartPolicy
from .topology import ClusterTopology, ShardEndpoint

__all__ = [
    "ShardManifest",
    "split_store",
    "ShardRouter",
    "ClusterTopology",
    "ShardEndpoint",
    "CircuitBreaker",
    "EndpointHealth",
    "probe_endpoint",
    "ClusterMonitor",
    "RestartPolicy",
]
