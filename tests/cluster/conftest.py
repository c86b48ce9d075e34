"""Fixtures for the cluster suite.

``LocalCluster`` runs a real sharded serving cluster *in-process*: one
:class:`~repro.serve.service.ProbeService` over each shard's paged file
plus one :class:`~repro.aserve.server.AsyncProbeServer` per endpoint
(primary and replicas), all on loopback ephemeral ports.  Tests get genuine
sockets, genuine scatter-gather, and a ``kill`` switch that takes an
endpoint down hard — without subprocess management (the subprocess path
is covered by ``scripts/cluster_smoke.py``).

Splits are memoized per (game, shards, partition) through
:mod:`tests.workloads`, so each topology is solved and split once per
session no matter how many tests consume it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.aserve.server import AsyncProbeServer
from repro.cluster.manifest import ShardManifest
from repro.cluster.router import ShardRouter
from repro.resilience import ReconnectPolicy
from repro.serve.service import ProbeService

from tests.workloads import (  # noqa: F401 — shared across the suite
    BLOCK_POSITIONS,
    GAMES,
    cluster_dir,
    solved_set,
)

#: Reconnect policy for tests: bounded like production, fast like tests.
#: One reconnect attempt and ~10ms backoff means a dead endpoint is
#: detected in milliseconds instead of the default multi-second budget.
FAST_POLICY = ReconnectPolicy(
    connect_attempts=2,
    request_replays=1,
    backoff_seconds=0.01,
    backoff_max_seconds=0.02,
)

#: Paged cache budget per shard service — small enough that even the
#: shard-local databases span many cache misses.
SHARD_CACHE_BYTES = 4 * BLOCK_POSITIONS * 2


class LocalCluster:
    """A live sharded cluster on loopback, one server per endpoint.

    ``endpoints`` has the router's shape: one list per shard, primary
    first, replicas after.  ``kill(shard, endpoint)`` stops a server and
    closes its service so later connections are refused — the sharpest
    failure a router can meet short of a SIGKILLed subprocess.
    ``faults`` maps a shard to the
    :class:`~repro.resilience.FaultPlan` its servers run.
    """

    def __init__(self, directory, replicas: int = 0, faults=None):
        self.directory = Path(directory)
        self.manifest = ShardManifest.load(self.directory)
        self.servers: list = []
        self.services: list[list[ProbeService]] = []
        for shard, shard_file in enumerate(self.manifest.shard_files):
            shard_servers, shard_services = [], []
            plan = (faults or {}).get(shard)
            for _ in range(1 + replicas):
                service = ProbeService.from_paged(
                    self.directory / shard_file,
                    cache_bytes=SHARD_CACHE_BYTES,
                )
                shard_services.append(service)
                shard_servers.append(
                    AsyncProbeServer(service, faults=plan).start()
                )
            self.servers.append(shard_servers)
            self.services.append(shard_services)
        self._dead: set = set()

    @property
    def endpoints(self) -> list:
        """Per-shard (host, port) lists in router order."""
        return [
            [(s.host, s.port) for s in shard] for shard in self.servers
        ]

    def kill(self, shard: int, endpoint: int = 0) -> None:
        """Take one endpoint down: refuse all future connections."""
        key = (shard, endpoint)
        if key in self._dead:
            return
        self._dead.add(key)
        self.servers[shard][endpoint].shutdown()
        self.services[shard][endpoint].close()

    def restart(self, shard: int, endpoint: int = 0) -> None:
        """Bring a killed endpoint back **on its original port** — the
        in-process equivalent of the supervisor's respawn, so breaker
        reinstatement is testable without subprocesses."""
        key = (shard, endpoint)
        if key not in self._dead:
            return
        old = self.servers[shard][endpoint]
        shard_file = self.manifest.shard_files[shard]
        service = ProbeService.from_paged(
            self.directory / shard_file, cache_bytes=SHARD_CACHE_BYTES,
        )
        server = AsyncProbeServer(
            service, host=old.host, port=old.port
        ).start()
        self.servers[shard][endpoint] = server
        self.services[shard][endpoint] = service
        self._dead.discard(key)

    def router(self, metrics=None, policy=FAST_POLICY) -> ShardRouter:
        """A fresh router over this cluster's current endpoints."""
        return ShardRouter(
            self.manifest, self.endpoints, metrics=metrics, policy=policy,
        )

    def close(self) -> None:
        for shard in range(len(self.servers)):
            for endpoint in range(len(self.servers[shard])):
                self.kill(shard, endpoint)


#: The topology grid of the differential suite: name, shard count,
#: replicas per shard.  ``single`` pins the degenerate one-shard cluster
#: against the plain single-server path.
TOPOLOGIES = {
    "single": (1, 0),
    "two-shard": (2, 0),
    "four-shard-replica": (4, 1),
}


@pytest.fixture(scope="module", params=sorted(GAMES), ids=sorted(GAMES))
def solved(request):
    """(name, game, DatabaseSet oracle) per game — memoized solve."""
    name = request.param
    game, dbs = solved_set(name)
    return name, game, dbs


@pytest.fixture(
    scope="module", params=sorted(TOPOLOGIES), ids=sorted(TOPOLOGIES)
)
def cluster(request, solved, tmp_path_factory):
    """A live LocalCluster of the parametrized game and topology."""
    name, game, dbs = solved
    n_shards, replicas = TOPOLOGIES[request.param]
    directory = cluster_dir(name, n_shards, tmp_path_factory)
    local = LocalCluster(directory, replicas=replicas)
    yield request.param, local
    local.close()
