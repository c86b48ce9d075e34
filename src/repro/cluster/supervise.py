"""Failure detection and auto-restart for a launched cluster.

A :class:`ClusterMonitor` runs one background thread over a
:class:`~repro.cluster.launch.ClusterSupervisor`: every
``health_interval`` seconds it polls each child process and, for
children that look alive, performs a lightweight TCP liveness probe
(:func:`repro.cluster.health.probe_endpoint` — one binary ``ping``
frame round trip).  A dead or unresponsive endpoint is respawned from
its recorded :class:`~repro.cluster.launch.SpawnSpec` **on its original
port**, so the routers already holding the topology reconnect to the
replacement without any rendezvous; the breaker machinery in
:mod:`repro.cluster.router` then reinstates the endpoint on its next
successful request.

Restarts are governed by a :class:`RestartPolicy`:

* bounded exponential backoff between consecutive restarts of one
  endpoint (:func:`repro.resilience.retry.backoff_delay` — the same
  deterministic curve every other retry path here uses), scheduled
  rather than slept so one flapping endpoint never stalls monitoring
  of the others;
* a flap detector — more than ``max_restarts`` restarts of one
  endpoint within ``window_seconds`` means restarting is not fixing
  anything (corrupt shard file, port stolen, OOM loop), so the monitor
  **gives up loudly**: the endpoint is marked abandoned, the event is
  counted on ``cluster.supervisor.giveups`` and reported through the
  event callback, and the remaining endpoints stay supervised.

The monitor never *decides* cluster membership — the topology file is
rewritten after every successful respawn (same addresses, fresh pid)
so external chaos tooling can watch pids change, but routing decisions
stay with the router's circuit breakers.

Observability: ``cluster.supervisor.restarts`` / ``giveups`` /
``health_probes`` counters, plus ``cluster.supervisor.alive`` and
``cluster.supervisor.uptime_seconds`` gauges, refreshed every tick.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..obs import NULL_METRICS
from ..resilience.retry import backoff_delay
from .health import probe_endpoint
from .launch import ClusterLaunchError

__all__ = ["RestartPolicy", "EndpointState", "ClusterMonitor"]

#: Consecutive failed liveness probes before a live-looking process is
#: declared wedged and killed for respawn.
PROBE_FAILURES_TO_KILL = 3


@dataclass(frozen=True)
class RestartPolicy:
    """Bounds on the monitor's restart behaviour."""

    #: Restarts of one endpoint tolerated inside the window before the
    #: monitor gives up on it.
    max_restarts: int = 5
    #: Sliding flap-detection window in seconds.
    window_seconds: float = 60.0
    #: Exponential backoff between restarts of one endpoint: the n-th
    #: consecutive restart waits ``min(base * 2**(n-1), cap)`` seconds.
    backoff_base: float = 0.2
    backoff_cap: float = 5.0

    def __post_init__(self):
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")

    def delay(self, consecutive: int) -> float:
        """Backoff before the ``consecutive``-th restart in a row."""
        return backoff_delay(consecutive, self.backoff_base,
                             self.backoff_cap)


class EndpointState:
    """Per-endpoint supervision bookkeeping (monitor thread only)."""

    __slots__ = ("restart_times", "total_restarts", "probe_failures",
                 "gave_up", "next_attempt_at", "pending")

    def __init__(self):
        self.restart_times: list = []  # clock() stamps, pruned to window
        self.total_restarts = 0
        self.probe_failures = 0
        self.gave_up = False
        self.next_attempt_at = 0.0  # backoff gate for the next respawn
        self.pending = False  # death seen, respawn waiting on backoff


class ClusterMonitor:
    """Watch a supervisor's children; respawn the ones that die.

    ``on_event(kind, shard, endpoint, detail)`` receives
    ``"restart" | "giveup" | "unresponsive"`` notifications (the CLI
    prints them; tests collect them).  ``clock``/``sleep`` are
    injectable so policy tests run without real time.
    """

    def __init__(self, supervisor, policy: RestartPolicy | None = None,
                 health_interval: float = 1.0, probe_timeout: float = 1.0,
                 metrics=None, topology_path=None, on_event=None,
                 ready_timeout: float | None = None,
                 clock=time.monotonic, sleep=None):
        if health_interval <= 0:
            raise ValueError("health_interval must be positive")
        self.supervisor = supervisor
        self.policy = policy if policy is not None else RestartPolicy()
        self.health_interval = float(health_interval)
        self.probe_timeout = float(probe_timeout)
        self._metrics = NULL_METRICS if metrics is None else metrics
        self._topology_path = topology_path
        self._on_event = on_event
        self._ready_timeout = ready_timeout
        self._clock = clock
        self._stop = threading.Event()
        self._sleep = sleep if sleep is not None else self._stop.wait
        self._thread: threading.Thread | None = None
        self._started_at = clock()
        self._states = {
            key: EndpointState() for key in supervisor.endpoints()
        }

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ClusterMonitor":
        """Run the monitor loop on a background thread and return."""
        self._thread = threading.Thread(
            target=self._run, name="cluster-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop monitoring (children keep running; shutting them down
        is the supervisor's job).  Joins the monitor thread."""
        self._stop.set()
        if (self._thread is not None
                and self._thread is not threading.current_thread()):
            self._thread.join()

    def __enter__(self) -> "ClusterMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ inspection

    def gave_up_on(self) -> list:
        """``(shard, endpoint)`` pairs the flap detector abandoned."""
        return sorted(
            key for key, state in self._states.items() if state.gave_up
        )

    def restarts(self) -> int:
        """Total successful respawns so far."""
        return sum(
            state.total_restarts for state in self._states.values()
        )

    def restarts_of(self, shard: int, endpoint: int = 0) -> int:
        """Successful respawns of one endpoint."""
        return self._states[(shard, endpoint)].total_restarts

    # ---------------------------------------------------------------- loop

    def _run(self) -> None:
        while not self._stop.is_set():
            self.check_once()
            self._sleep(self.health_interval)

    def check_once(self) -> None:
        """One supervision pass over every endpoint (public so tests
        and the CLI can drive the loop synchronously)."""
        for shard, endpoint in self.supervisor.endpoints():
            state = self._states[(shard, endpoint)]
            if state.gave_up or self._stop.is_set():
                continue
            self._check_endpoint(shard, endpoint, state)
        self._metrics.set_gauge(
            "cluster.supervisor.alive", self.supervisor.alive()
        )
        self._metrics.set_gauge(
            "cluster.supervisor.uptime_seconds",
            self._clock() - self._started_at,
        )

    def _check_endpoint(self, shard: int, endpoint: int,
                        state: EndpointState) -> None:
        proc = self.supervisor.process(shard, endpoint)
        if proc.poll() is None and not state.pending:
            if not self._probe(shard, endpoint):
                state.probe_failures += 1
                if state.probe_failures < PROBE_FAILURES_TO_KILL:
                    return
                # Process alive but not answering: wedged.  Kill it so
                # the ordinary dead-endpoint path takes over.
                self._notify(
                    "unresponsive", shard, endpoint,
                    f"no pong after {state.probe_failures} probes; killing",
                )
                proc.kill()
                proc.wait()
            else:
                state.probe_failures = 0
                return
        # Dead (or just killed).  Gate the respawn on the backoff clock.
        if not state.pending:
            state.pending = True
            state.probe_failures = 0
            consecutive = len(state.restart_times) + 1
            state.next_attempt_at = (
                self._clock() + self.policy.delay(consecutive)
            )
        if self._clock() < state.next_attempt_at:
            return
        self._restart(shard, endpoint, state)

    def _restart(self, shard: int, endpoint: int,
                 state: EndpointState) -> None:
        now = self._clock()
        window_start = now - self.policy.window_seconds
        state.restart_times = [
            t for t in state.restart_times if t >= window_start
        ]
        if len(state.restart_times) >= self.policy.max_restarts:
            state.gave_up = True
            state.pending = False
            self._metrics.inc("cluster.supervisor.giveups")
            self._notify(
                "giveup", shard, endpoint,
                f"{len(state.restart_times)} restarts within "
                f"{self.policy.window_seconds}s; abandoning this endpoint",
            )
            return
        try:
            kwargs = (
                {} if self._ready_timeout is None
                else {"ready_timeout": self._ready_timeout}
            )
            replacement = self.supervisor.respawn(shard, endpoint, **kwargs)
        except ClusterLaunchError as exc:
            # The respawn itself failed; count it as an attempt and
            # back off harder before the next one.
            state.restart_times.append(now)
            consecutive = len(state.restart_times) + 1
            state.next_attempt_at = now + self.policy.delay(consecutive)
            self._notify("restart-failed", shard, endpoint, str(exc))
            return
        state.restart_times.append(now)
        state.total_restarts += 1
        state.pending = False
        self._metrics.inc("cluster.supervisor.restarts")
        self._notify(
            "restart", shard, endpoint,
            f"respawned on {replacement.host}:{replacement.port} "
            f"(pid {replacement.pid})",
        )
        if self._topology_path is not None:
            self.supervisor.topology.save(self._topology_path)

    # -------------------------------------------------------------- helpers

    def _probe(self, shard: int, endpoint: int) -> bool:
        address = self.supervisor.topology.endpoints[shard][endpoint]
        self._metrics.inc("cluster.supervisor.health_probes")
        return probe_endpoint(
            address.host, address.port, timeout=self.probe_timeout
        )

    def _notify(self, kind: str, shard: int, endpoint: int,
                detail: str) -> None:
        if self._on_event is not None:
            self._on_event(kind, shard, endpoint, detail)
