"""Deterministic fault injection for the chaos suite and CLI.

A recovery path that is never executed is a recovery path that does not
work.  This module turns the failure modes the resilience layer
defends against into *deterministic, repeatable* injectors:

* ``kill-worker`` — SIGKILL the pool worker executing one chosen task
  (a scan chunk or a slice of threshold runs), exactly once.
* ``drop-conn`` — sever probe connections server-side: every Nth
  accepted connection outright, and/or each connection after K answered
  requests.
* ``corrupt-checkpoint`` — flip a byte in one database's checkpoint
  file after it is written, exactly once.
* ``crash-shard`` — SIGKILL a shard server process after it has
  answered N requests, exactly once (what exercises the supervisor's
  auto-restart and the router's probe-back).
* ``latency`` — sleep X milliseconds before answering every Nth
  request (deadline and hedged-read tests).
* ``blackhole`` — after N answered requests, keep reading requests but
  never reply (client-timeout-path tests).

Once-only semantics survive process boundaries (forked pool workers,
killed-and-resumed pipelines, respawned shard servers) through an
``O_CREAT | O_EXCL`` flag file:
whichever process trips the fault first atomically claims the flag, and
every later attempt — including the replay of the killed task — runs
clean.  That is what makes "inject a fault, finish anyway, bit-identical
output" assertable.

Specs are compact strings for the CLI (``--inject-fault``)::

    kill-worker:chunk=2          kill the worker scanning chunk 2
    kill-worker:threshold=3      kill the worker whose slice holds threshold 3
    drop-conn:every=50           drop every 50th accepted connection
    drop-conn:after=100          sever each connection after 100 requests
    drop-conn:every=7,after=100  both
    corrupt-checkpoint:db=4      corrupt database 4's checkpoint file
    crash-shard:shard=1,after=50 SIGKILL shard 1's server after 50 requests
    latency:ms=200,every=3       200ms delay on every 3rd request
    blackhole:after=10           answer 10 requests, then go silent
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
from dataclasses import dataclass, field

__all__ = [
    "FaultSpecError",
    "FaultSpec",
    "parse_fault",
    "WorkerKillInjector",
    "ConnectionDropInjector",
    "CheckpointCorruptInjector",
    "ShardCrashInjector",
    "LatencyInjector",
    "BlackholeInjector",
    "FaultPlan",
    "corrupt_file",
]

#: kind -> allowed integer parameters.
_KINDS = {
    "kill-worker": {"chunk", "threshold"},
    "drop-conn": {"every", "after"},
    "corrupt-checkpoint": {"db"},
    "crash-shard": {"shard", "after"},
    "latency": {"ms", "every"},
    "blackhole": {"after"},
}

#: kind -> parameters that must be present in a valid spec.
_REQUIRED = {
    "crash-shard": {"after"},
    "latency": {"ms"},
    "blackhole": {"after"},
}


class FaultSpecError(ValueError):
    """A ``--inject-fault`` spec string does not parse."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind:key=value[,key=value]`` spec."""

    kind: str
    params: dict


def parse_fault(text: str) -> FaultSpec:
    """Parse one ``kind:key=int[,key=int]`` fault spec, validating the
    kind and its parameter names; raises :class:`FaultSpecError`."""
    kind, _, rest = str(text).strip().partition(":")
    if kind not in _KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} (expected one of "
            f"{', '.join(sorted(_KINDS))})"
        )
    params: dict = {}
    for part in filter(None, rest.split(",")):
        key, sep, value = part.partition("=")
        if key not in _KINDS[kind]:
            raise FaultSpecError(f"{kind!r} takes {sorted(_KINDS[kind])}, "
                                 f"not {key!r}")
        if not sep:
            raise FaultSpecError(f"parameter {key!r} needs =<int>")
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise FaultSpecError(f"{key}={value!r} is not an integer") from exc
    if not params:
        raise FaultSpecError(f"{kind!r} needs at least one parameter, e.g. "
                             f"{kind}:{sorted(_KINDS[kind])[0]}=1")
    if kind == "kill-worker" and len(params) != 1:
        raise FaultSpecError("kill-worker takes exactly one of chunk=/threshold=")
    missing = _REQUIRED.get(kind, set()) - params.keys()
    if missing:
        raise FaultSpecError(
            f"{kind!r} needs {'/'.join(f'{k}=' for k in sorted(missing))}"
        )
    return FaultSpec(kind, params)


# ---------------------------------------------------------------- injectors


def _claim_flag(flag_path: str) -> bool:
    """Atomically claim a once-only flag; True for the first claimant."""
    try:
        fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


@dataclass(frozen=True)
class WorkerKillInjector:
    """SIGKILL the process executing one chosen task — once.

    ``scope`` is ``"chunk"`` (scan fan-out; ``target`` is the chunk
    number) or ``"threshold"`` (threshold fan-out; ``target`` is a
    threshold, and the task whose slice holds it is killed, so the
    whole slice is replayed).  The flag file makes the kill fire exactly once across every
    fork and pool rebuild, so the replayed task succeeds.
    """

    scope: str
    target: int
    flag_path: str

    def should_fire(self, scope: str, number: int) -> bool:
        if scope != self.scope or int(number) != self.target:
            return False
        return _claim_flag(self.flag_path)

    def maybe_kill(self, scope: str, number: int) -> None:
        if self.should_fire(scope, number):
            os.kill(os.getpid(), signal.SIGKILL)


class ConnectionDropInjector:
    """Sever probe connections server-side, deterministically.

    ``every=N`` drops every Nth accepted connection before it is served;
    ``after=K`` severs each connection once it has answered K requests.
    Counting is process-local and thread-safe.
    """

    def __init__(self, every: int | None = None, after: int | None = None):
        if not every and not after:
            raise FaultSpecError("drop-conn needs every= and/or after=")
        self.every = int(every) if every else None
        self.after = int(after) if after else None
        self._accepted = 0
        self._lock = threading.Lock()

    def drop_on_accept(self) -> bool:
        if self.every is None:
            return False
        with self._lock:
            self._accepted += 1
            return self._accepted % self.every == 0

    def sever_after(self) -> int | None:
        return self.after


class ShardCrashInjector:
    """SIGKILL this process after it has answered N requests — once.

    The serving loop calls :meth:`answered` after each response goes
    out; at exactly ``after`` answers the injector claims the flag file
    and SIGKILLs its own process.  Because the flag survives the
    respawn (the supervisor hands the restarted server the same state
    dir), the replacement server counts up through ``after`` and stays
    alive — which is what lets a chaos run assert both the crash and
    the recovery.  ``shard`` is advisory: the cluster CLI uses it to
    target one shard's server; the server itself crashes regardless.
    """

    def __init__(self, after: int, flag_path: str, shard: int | None = None):
        if int(after) < 1:
            raise FaultSpecError("crash-shard needs after >= 1")
        self.after = int(after)
        self.shard = None if shard is None else int(shard)
        self.flag_path = flag_path
        self._answered = 0
        self._lock = threading.Lock()

    def answered(self) -> None:
        """Count one answered request; SIGKILL the process at ``after``."""
        with self._lock:
            self._answered += 1
            fire = self._answered == self.after
        if fire and _claim_flag(self.flag_path):
            os.kill(os.getpid(), signal.SIGKILL)


class LatencyInjector:
    """Delay every Nth answer by a fixed number of milliseconds.

    Deterministic by count, not by time: the Nth, 2Nth, ... request
    each pays ``ms`` milliseconds (``every`` defaults to every
    request).  Thread-safe; the caller owns the actual sleep so the
    async server can ``await`` it instead of blocking the loop.
    """

    def __init__(self, ms: int, every: int | None = None):
        if int(ms) < 0:
            raise FaultSpecError("latency needs ms >= 0")
        if every is not None and int(every) < 1:
            raise FaultSpecError("latency needs every >= 1")
        self.ms = int(ms)
        self.every = int(every) if every else 1
        self._seen = 0
        self._lock = threading.Lock()

    def delay_seconds(self) -> float:
        """Delay owed by the next request (0.0 when it runs clean)."""
        with self._lock:
            self._seen += 1
            fire = self._seen % self.every == 0
        return self.ms / 1000.0 if fire else 0.0


class BlackholeInjector:
    """Answer the first N requests, then swallow every later one.

    A swallowed request is read off the wire and never answered — the
    connection stays open and silent, which is the failure mode only a
    client-side timeout can escape.  Counting is process-global.
    """

    def __init__(self, after: int):
        if int(after) < 0:
            raise FaultSpecError("blackhole needs after >= 0")
        self.after = int(after)
        self._answered = 0
        self._lock = threading.Lock()

    def swallow(self) -> bool:
        """True once the answer budget is exhausted."""
        with self._lock:
            if self._answered >= self.after:
                return True
            self._answered += 1
            return False


@dataclass(frozen=True)
class CheckpointCorruptInjector:
    """Flip a byte in one database's checkpoint after it lands — once."""

    db: int
    flag_path: str

    def should_fire(self, db_key) -> bool:
        if str(db_key) != str(self.db):
            return False
        return _claim_flag(self.flag_path)


def corrupt_file(path, offset: int | None = None) -> None:
    """Flip one byte of ``path`` in place (middle byte by default —
    past the ``.npy`` header, inside the data)."""
    with open(path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return
        pos = size // 2 if offset is None else min(int(offset), size - 1)
        fh.seek(pos)
        byte = fh.read(1)
        fh.seek(pos)
        fh.write(bytes([byte[0] ^ 0xFF]))


# --------------------------------------------------------------- FaultPlan


@dataclass
class FaultPlan:
    """Every injector for one run, built from ``--inject-fault`` specs.

    ``state_dir`` holds the once-only flag files; hand the *same*
    directory to a killed-and-resumed run so a fault that already fired
    stays fired.
    """

    worker_kill: WorkerKillInjector | None = None
    connection_drop: ConnectionDropInjector | None = None
    checkpoint_corrupt: CheckpointCorruptInjector | None = None
    shard_crash: ShardCrashInjector | None = None
    latency: LatencyInjector | None = None
    blackhole: BlackholeInjector | None = None
    specs: list = field(default_factory=list)

    @classmethod
    def from_specs(cls, texts, state_dir=None) -> "FaultPlan":
        specs = [parse_fault(t) if not isinstance(t, FaultSpec) else t
                 for t in texts]
        plan = cls(specs=specs)
        if state_dir is None and any(
            s.kind in ("kill-worker", "corrupt-checkpoint", "crash-shard")
            for s in specs
        ):
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
        for spec in specs:
            if spec.kind == "kill-worker":
                (scope, target), = spec.params.items()
                plan.worker_kill = WorkerKillInjector(
                    scope=scope,
                    target=target,
                    flag_path=os.path.join(
                        str(state_dir), f"kill_{scope}_{target}.fired"
                    ),
                )
            elif spec.kind == "drop-conn":
                plan.connection_drop = ConnectionDropInjector(
                    every=spec.params.get("every"),
                    after=spec.params.get("after"),
                )
            elif spec.kind == "crash-shard":
                shard = spec.params.get("shard")
                plan.shard_crash = ShardCrashInjector(
                    after=spec.params["after"],
                    shard=shard,
                    flag_path=os.path.join(
                        str(state_dir),
                        f"crash_shard_{'self' if shard is None else shard}"
                        ".fired",
                    ),
                )
            elif spec.kind == "latency":
                plan.latency = LatencyInjector(
                    ms=spec.params["ms"], every=spec.params.get("every"),
                )
            elif spec.kind == "blackhole":
                plan.blackhole = BlackholeInjector(
                    after=spec.params["after"]
                )
            else:  # corrupt-checkpoint
                db = spec.params["db"]
                plan.checkpoint_corrupt = CheckpointCorruptInjector(
                    db=db,
                    flag_path=os.path.join(
                        str(state_dir), f"corrupt_db_{db}.fired"
                    ),
                )
        return plan
