#!/usr/bin/env python
"""End-to-end cluster smoke test, used by the CI ``cluster-smoke`` job.

The full cluster lifecycle against a real subprocess topology, with a
mid-stream kill:

1. solve — a fault-free reference database set
2. ``repro cluster split`` — two cyclic shards + ``cluster.json``
3. ``repro cluster up --replicas 1`` — four shard servers (2 shards x
   primary+replica) supervised by one subprocess
4. 1,000 verified probes through a router with ``hedge_after_ms=0``:
   every sub-batch still in flight is hedged on its replica over real
   sockets — **zero** wrong answers, and ``cluster.hedges`` must count
5. the same probes through a plain :class:`ShardRouter`; one third of
   the way in, shard 0's primary is SIGKILLed — the router must fail
   over to the replica with **zero** wrong answers and count the event
   on ``cluster.failovers``
6. ``repro cluster probe`` — the CLI path answers over the degraded
   topology
7. SIGINT — the supervisor reaps the surviving servers and exits 0
   with ``cluster stopped``

Exits non-zero on any mismatch, missing counter, or unclean shutdown;
writes a ``cluster-smoke.json`` artifact with the run's numbers.

Run:  PYTHONPATH=src python scripts/cluster_smoke.py [artifact.json]
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

STONES = 6
N_PROBES = 1_000
BATCH = 64
KILL_AT = N_PROBES // 3


def wait_for(path: Path, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().strip():
            return path.read_text().strip()
        time.sleep(0.05)
    raise TimeoutError(f"cluster did not become ready within {timeout}s")


def cli(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    return result.stdout


def main() -> int:
    from repro.cluster.router import ShardRouter
    from repro.cluster.topology import ClusterTopology
    from repro.db.store import DatabaseSet
    from repro.obs import MetricsRegistry
    from repro.resilience import ReconnectPolicy

    artifact = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "cluster-smoke.json"
    )
    tmp = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    reference = tmp / "reference.npz"
    cluster_dir = tmp / "cluster"
    ready = tmp / "ready"

    print(f"== reference: fault-free {STONES}-stone solve")
    cli("solve", "--stones", str(STONES), "--out", str(reference))
    dbs = DatabaseSet.load(reference)

    print("== split into 2 cyclic shards")
    out = cli("cluster", "split", str(reference), str(cluster_dir),
              "--shards", "2", "--block-positions", "256")
    print("  ", out.strip().splitlines()[0])

    print("== cluster up: 2 shards x (primary + 1 replica)")
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "cluster", "up", str(cluster_dir),
         "--replicas", "1", "--cache-kb", "64",
         "--ready-file", str(ready)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        topology_path = wait_for(ready)
        topology = ClusterTopology.load(topology_path)
        victim = topology.endpoints[0][0]
        print(f"   {len(topology.endpoints)} shards, "
              f"{topology.n_endpoints} endpoints; victim pid {victim.pid} "
              f"({victim.host}:{victim.port})")

        rng = np.random.default_rng(2026)
        ids = dbs.ids()
        pairs = [
            (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
            for d in rng.choice(ids, size=N_PROBES)
        ]
        expected = np.array([int(dbs[d][i]) for d, i in pairs],
                            dtype=np.int16)

        policy = ReconnectPolicy(connect_attempts=2, request_replays=1,
                                 backoff_seconds=0.05,
                                 backoff_max_seconds=0.2)

        print(f"== {N_PROBES} hedged probes (hedge_after_ms=0)")
        hedged_registry = MetricsRegistry()
        with ShardRouter.from_topology(
            topology, metrics=hedged_registry, policy=policy,
            hedge_after_ms=0,
        ) as router:
            hedged = np.concatenate([
                router.probe_many(pairs[start:start + BATCH])
                for start in range(0, N_PROBES, BATCH)
            ])
        hedged_mismatches = int((hedged != expected).sum())
        hedges = hedged_registry.counters.get("cluster.hedges", 0)
        print(f"   {hedged_mismatches} mismatches, {hedges} hedges, "
              f"{hedged_registry.counters.get('cluster.hedge_wins', 0)} "
              "won by the replica")
        if hedged_mismatches or hedges < 1:
            print("FAIL: the hedged pass answered wrongly or never hedged",
                  file=sys.stderr)
            return 1

        registry = MetricsRegistry()
        got: list = []
        killed = False
        print(f"== {N_PROBES} probes, SIGKILL shard 0 primary at "
              f"#{KILL_AT}")
        with ShardRouter.from_topology(
            topology, metrics=registry, policy=policy
        ) as router:
            for start in range(0, N_PROBES, BATCH):
                if not killed and start >= KILL_AT:
                    os.kill(victim.pid, signal.SIGKILL)
                    killed = True
                got.extend(router.probe_many(pairs[start:start + BATCH]))

        mismatches = int(
            (np.asarray(got, dtype=np.int16) != expected).sum()
        )
        counters = dict(registry.counters)
        failovers = counters.get("cluster.failovers", 0)
        print(f"   {mismatches} mismatches, {failovers} failovers, "
              f"{counters.get('cluster.shard_errors', 0)} shard errors")
        if mismatches:
            print("FAIL: the cluster returned wrong answers",
                  file=sys.stderr)
            return 1
        if not killed or failovers < 1:
            print("FAIL: the kill never forced a failover",
                  file=sys.stderr)
            return 1

        print("== CLI probe over the degraded topology")
        top = ids[-1]
        out = cli("cluster", "probe", "--topology", topology_path,
                  "--db", str(top), "--index", "0", "--stats")
        first = out.strip().splitlines()[0]
        print("  ", first)
        want = f"value {int(dbs[top][0]):+d}"
        if want not in first:
            print(f"FAIL: CLI probe answered {first!r}, wanted {want!r}",
                  file=sys.stderr)
            return 1

        print("== SIGINT -> graceful shutdown of the survivors")
        supervisor.send_signal(signal.SIGINT)
        output, _ = supervisor.communicate(timeout=30)
        if supervisor.returncode != 0 or "cluster stopped" not in output:
            print(
                f"unclean shutdown (rc={supervisor.returncode}):\n{output}",
                file=sys.stderr,
            )
            return 1

        artifact.write_text(json.dumps({
            "stones": STONES,
            "probes": N_PROBES,
            "mismatches": mismatches,
            "hedged_mismatches": hedged_mismatches,
            "hedges": hedges,
            "killed_pid": victim.pid,
            "counters": counters,
        }, indent=2, sort_keys=True) + "\n")
        print(f"== cluster smoke OK (artifact: {artifact})")
        return 0
    finally:
        if supervisor.poll() is None:
            supervisor.kill()


if __name__ == "__main__":
    sys.exit(main())
