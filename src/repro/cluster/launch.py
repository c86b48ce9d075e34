"""Launch shard server processes and publish the cluster topology.

``launch_cluster`` starts one ``repro serve`` subprocess per shard file
(plus ``replicas`` extra processes per shard, serving the *same* shard
file), waits for every server's ready file, and returns a
:class:`ClusterSupervisor` holding the live
:class:`~repro.cluster.topology.ClusterTopology` — including child
process ids, so chaos tooling can SIGKILL one precise endpoint and
watch the router reroute.

Every endpoint keeps its :class:`SpawnSpec` — the full recipe to start
that exact server again.  :meth:`ClusterSupervisor.respawn` replays the
recipe **on the endpoint's original port** (the servers bind with
``SO_REUSEADDR``), so a restarted primary is reachable at the address
the topology and every router already know.  The monitor thread that
decides *when* to respawn lives in :mod:`repro.cluster.supervise`.

Fault injection flows through here too: ``fault_specs`` hands
deterministic fault plans (:mod:`repro.resilience.faults`) to the shard
*primaries* — a ``crash-shard:shard=K`` spec lands only on shard K —
and each faulted endpoint gets a private ``--fault-state-dir`` so a
once-only fault that already fired stays fired across a respawn.

Real processes, not threads, on purpose: a shard that dies takes only
its own memory and sockets with it (the paper's machines fail
independently), and the supervisor's shutdown path must tolerate
children that are already gone.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience.faults import parse_fault
from .manifest import ShardManifest
from .topology import ClusterTopology, ShardEndpoint

__all__ = [
    "ClusterLaunchError",
    "ClusterSupervisor",
    "SpawnSpec",
    "launch_cluster",
]

#: How long one shard server may take to write its ready file.
READY_TIMEOUT_SECONDS = 30.0


class ClusterLaunchError(RuntimeError):
    """A shard server failed to come up within the ready timeout."""


@dataclass(frozen=True)
class SpawnSpec:
    """Everything needed to (re)start one shard server process."""

    shard: int
    copy: int  # 0 = primary, 1.. = replicas
    shard_file: str
    host: str
    cache_kb: int
    ready_dir: str = ""
    fault_specs: tuple = ()
    fault_state_dir: str | None = None
    max_inflight: int | None = None
    extra_args: tuple = field(default=())

    def command(self, port: int, ready_path: Path) -> list:
        """The ``repro serve`` argv for this endpoint on ``port``
        (0 for an ephemeral first launch, the recorded port on
        respawn)."""
        argv = [
            sys.executable, "-m", "repro", "serve", self.shard_file,
            "--host", self.host, "--port", str(int(port)),
            "--cache-kb", str(self.cache_kb),
            "--ready-file", str(ready_path),
        ]
        for spec in self.fault_specs:
            argv += ["--inject-fault", spec]
        if self.fault_state_dir is not None:
            argv += ["--fault-state-dir", self.fault_state_dir]
        if self.max_inflight is not None:
            argv += ["--max-inflight", str(self.max_inflight)]
        argv += list(self.extra_args)
        return argv

    def spawn(self, port: int, ready_path: Path) -> subprocess.Popen:
        """Start the server process (stdout/stderr silenced — the
        wire protocol is the interface, ready files the handshake)."""
        if ready_path.exists():
            ready_path.unlink()
        return subprocess.Popen(
            self.command(port, ready_path),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )


class ClusterSupervisor:
    """Owns the shard server processes of one launched cluster.

    ``processes[shard]`` mirrors ``topology.endpoints[shard]``: primary
    first, replicas after.  :meth:`shutdown` interrupts every child that
    is still alive and escalates to SIGKILL after a grace period —
    idempotent, unbothered by children that already died (that is the
    failure mode the cluster exists to absorb) — and records every
    child's exit status in :attr:`exit_statuses`.

    :meth:`respawn` restarts one dead endpoint from its spawn spec on
    the endpoint's original port and rewrites the topology entry's pid;
    the restart *policy* (backoff, flap detection, health probing)
    lives in :class:`~repro.cluster.supervise.ClusterMonitor`.
    """

    def __init__(self, topology: ClusterTopology, processes: list,
                 specs: list | None = None, ready_dir=None):
        self.topology = topology
        self._processes = processes
        self._specs = specs
        self._ready_dir = None if ready_dir is None else Path(ready_dir)
        #: ``{(shard, endpoint): returncode}`` of every reaped child —
        #: filled by :meth:`shutdown` and :meth:`respawn` (the status
        #: of the process that was replaced).
        self.exit_statuses: dict = {}

    def process(self, shard: int, endpoint: int = 0) -> subprocess.Popen:
        """The child serving one endpoint (0 = primary)."""
        return self._processes[shard][endpoint]

    def spec(self, shard: int, endpoint: int = 0) -> SpawnSpec:
        """The spawn recipe of one endpoint (None for hand-built
        supervisors that never launched processes)."""
        return None if self._specs is None else self._specs[shard][endpoint]

    def endpoints(self):
        """Yield every ``(shard, endpoint_index)`` pair."""
        for shard, group in enumerate(self._processes):
            for endpoint in range(len(group)):
                yield shard, endpoint

    def alive(self) -> int:
        """How many shard server processes are currently running."""
        return sum(
            1
            for group in self._processes
            for proc in group
            if proc.poll() is None
        )

    def respawn(self, shard: int, endpoint: int,
                ready_timeout: float = READY_TIMEOUT_SECONDS
                ) -> ShardEndpoint:
        """Restart one dead endpoint on its original port.

        The old process must already be gone (its exit status is
        recorded); the new child must come up on the *same* address so
        routers holding the topology reconnect without a rendezvous.
        Raises :class:`ClusterLaunchError` when the replacement fails
        to become ready.
        """
        if self._specs is None:
            raise ClusterLaunchError(
                "supervisor has no spawn specs; cannot respawn"
            )
        old = self._processes[shard][endpoint]
        if old.poll() is None:
            raise ClusterLaunchError(
                f"shard {shard} endpoint {endpoint} (pid {old.pid}) "
                "is still running; refusing to respawn over it"
            )
        self.exit_statuses[(shard, endpoint)] = old.returncode
        address = self.topology.endpoints[shard][endpoint]
        spec = self._specs[shard][endpoint]
        ready_dir = self._ready_dir or Path(
            tempfile.mkdtemp(prefix="repro-cluster-ready-")
        )
        ready = ready_dir / f"shard{shard}-copy{endpoint}-respawn"
        proc = spec.spawn(address.port, ready)
        try:
            host, port = _wait_ready(ready, proc, ready_timeout)
        except ClusterLaunchError:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            raise
        if port != address.port:
            proc.kill()
            proc.wait()
            raise ClusterLaunchError(
                f"respawned shard {shard} endpoint {endpoint} came up on "
                f"port {port}, expected {address.port}"
            )
        replacement = ShardEndpoint(host=host, port=port, pid=proc.pid)
        self._processes[shard][endpoint] = proc
        self.topology.endpoints[shard][endpoint] = replacement
        return replacement

    def shutdown(self, grace_seconds: float = 10.0) -> None:
        """Stop every child: SIGINT, wait up to the grace period, then
        SIGKILL stragglers.  Safe to call repeatedly; every child's
        exit status lands in :attr:`exit_statuses`."""
        for group in self._processes:
            for proc in group:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + grace_seconds
        for shard, group in enumerate(self._processes):
            for endpoint, proc in enumerate(group):
                remaining = max(deadline - time.monotonic(), 0.1)
                try:
                    proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                self.exit_statuses[(shard, endpoint)] = proc.returncode

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _wait_ready(path: Path, proc: subprocess.Popen,
                timeout: float) -> tuple:
    """(host, port) from a server's ready file, polling the child."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                host, port = text.split()
                return host, int(port)
        if proc.poll() is not None:
            raise ClusterLaunchError(
                f"shard server exited with {proc.returncode} before ready"
            )
        time.sleep(0.02)
    raise ClusterLaunchError(f"no ready file at {path} after {timeout}s")


def _assign_faults(fault_specs, shard: int, copy: int) -> tuple:
    """The fault specs one endpoint should carry.

    Faults land on primaries only (replicas stay clean so failover has
    somewhere healthy to go); a ``crash-shard`` spec with ``shard=K``
    lands only on shard K's primary."""
    if not fault_specs or copy != 0:
        return ()
    assigned = []
    for spec in fault_specs:
        kind, params = parse_fault(spec)
        if kind == "crash-shard" and "shard" in params:
            if int(params["shard"]) != shard:
                continue
        assigned.append(spec)
    return tuple(assigned)


def launch_cluster(
    cluster_dir,
    replicas: int = 0,
    host: str = "127.0.0.1",
    cache_kb: int = 65536,
    ready_timeout: float = READY_TIMEOUT_SECONDS,
    fault_specs=None,
    fault_state_dir=None,
    max_inflight: int | None = None,
) -> ClusterSupervisor:
    """Start every shard server of a split cluster directory.

    Each shard gets ``1 + replicas`` ``repro serve`` processes over its
    shard file, all on ephemeral ports.  Returns a supervisor whose
    topology lists each shard's endpoints (primary first) with child
    pids; callers persist it with ``supervisor.topology.save(...)``.
    On any startup failure the already-started children are shut down
    before the error propagates.

    ``fault_specs`` injects deterministic faults into shard primaries
    (see :func:`_assign_faults`); each faulted endpoint gets its own
    state directory under ``fault_state_dir`` (default: next to the
    ready files) so once-only faults survive a supervisor respawn.
    ``max_inflight`` forwards the overload budget to every server.
    """
    if replicas < 0:
        raise ValueError("replicas must be >= 0")
    if fault_specs:
        for spec in fault_specs:
            parse_fault(spec)  # fail fast, before any child starts
    cluster_dir = Path(cluster_dir).resolve()
    manifest = ShardManifest.load(cluster_dir)
    ready_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-ready-"))
    fault_base = (
        Path(fault_state_dir) if fault_state_dir is not None
        else ready_dir / "faults"
    )
    processes: list = []
    specs: list = []
    endpoints: list = []
    try:
        for shard, shard_file in enumerate(manifest.shard_files):
            group_procs = []
            group_specs = []
            group_ready = []
            for copy in range(1 + replicas):
                assigned = _assign_faults(fault_specs, shard, copy)
                state_dir = None
                if assigned:
                    state_dir = fault_base / f"shard{shard}-copy{copy}"
                    state_dir.mkdir(parents=True, exist_ok=True)
                spec = SpawnSpec(
                    shard=shard, copy=copy,
                    shard_file=str(cluster_dir / shard_file),
                    host=host, cache_kb=cache_kb,
                    ready_dir=str(ready_dir),
                    fault_specs=assigned,
                    fault_state_dir=(
                        None if state_dir is None else str(state_dir)
                    ),
                    max_inflight=max_inflight,
                )
                ready = ready_dir / f"shard{shard}-copy{copy}"
                proc = spec.spawn(0, ready)
                group_procs.append(proc)
                group_specs.append(spec)
                group_ready.append(ready)
            processes.append(group_procs)
            specs.append(group_specs)
            endpoints.append(list(zip(group_procs, group_ready)))
        resolved = []
        for group in endpoints:
            group_eps = []
            for proc, ready in group:
                ep_host, ep_port = _wait_ready(ready, proc, ready_timeout)
                group_eps.append(
                    ShardEndpoint(host=ep_host, port=ep_port, pid=proc.pid)
                )
            resolved.append(group_eps)
    except Exception:
        for group_procs in processes:
            for proc in group_procs:
                if proc.poll() is None:
                    proc.kill()
        raise
    topology = ClusterTopology(
        cluster_dir=str(cluster_dir), endpoints=resolved
    )
    return ClusterSupervisor(
        topology, processes, specs=specs, ready_dir=ready_dir
    )
