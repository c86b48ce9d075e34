#!/usr/bin/env python
"""End-to-end chaos smoke test, used by the CI ``chaos-smoke`` job.

Every fault the resilience layer claims to absorb, injected for real,
with the output checked bit-for-bit against a fault-free run:

1. reference — ``repro solve`` with no faults
2. worker crash — multiprocess solve with an injected SIGKILL
   (``--inject-fault kill-worker:chunk=2``); result must be identical
   and the run manifest must show nonzero ``resilience.retries``
3. pipeline kill-and-resume — a checkpointing solve SIGKILLed
   mid-sequence, then rerun to completion from its checkpoints
4. chaotic serving — a probe server dropping every 7th connection and
   severing sessions after 100 responses; 1,000 probes through the
   reconnecting client must all match, then SIGINT must still shut the
   server down cleanly

Exits non-zero on any mismatch, missing counter, or unclean shutdown.

Run:  PYTHONPATH=src python scripts/chaos_smoke.py
"""

import json
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


def wait_for(path: Path, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().strip():
            return path.read_text().strip()
        time.sleep(0.05)
    raise TimeoutError(f"server did not become ready within {timeout}s")


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


def identical(archive_a: Path, archive_b: Path) -> bool:
    from repro.db.store import DatabaseSet

    a, b = DatabaseSet.load(archive_a), DatabaseSet.load(archive_b)
    if a.ids() != b.ids():
        return False
    return all(np.array_equal(a[d], b[d]) for d in a.ids())


def main() -> int:
    from repro.db.store import DatabaseSet
    from repro.aserve.client import BinaryProbeClient

    tmp = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    reference = tmp / "reference.npz"

    print(f"== reference: fault-free {STONES}-stone solve")
    cli("solve", "--stones", str(STONES), "--out", str(reference))

    # ------------------------------------------------- 2: worker crash
    chaotic = tmp / "chaotic.npz"
    manifest_path = tmp / "chaotic.json"
    print("== chaos solve: 2 workers, one SIGKILLed mid-scan")
    cli("solve", "--stones", str(STONES), "--workers", "2",
        "--scan-chunk", "256",
        "--checkpoint-dir", str(tmp / "ck_chaos"),
        "--inject-fault", "kill-worker:chunk=2",
        "--fault-state-dir", str(tmp / "faults"),
        "--out", str(chaotic), "--metrics-out", str(manifest_path))
    if not identical(reference, chaotic):
        print("FAIL: fault-injected solve diverged", file=sys.stderr)
        return 1
    counters = json.loads(manifest_path.read_text())["metrics"]["counters"]
    retries = counters.get("resilience.retries", 0)
    rebuilds = counters.get("resilience.pool_rebuilds", 0)
    print(f"   bit-identical; retries={retries} pool_rebuilds={rebuilds}")
    if retries < 1 or rebuilds < 1:
        print("FAIL: the injected kill never fired", file=sys.stderr)
        return 1

    # ------------------------------------------- 3: kill-and-resume
    ck = tmp / "ck_resume"
    resumed = tmp / "resumed.npz"
    args = [sys.executable, "-m", "repro", "solve",
            "--stones", str(STONES), "--checkpoint-dir", str(ck),
            "--out", str(resumed)]
    print("== pipeline kill-and-resume: SIGKILL after db 3 checkpoints")
    victim = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            break  # finished before the kill — resume is then a no-op
        if (ck / "db_3.npy").exists():
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            break
        time.sleep(0.002)
    else:
        victim.kill()
        print("FAIL: pipeline never checkpointed db 3", file=sys.stderr)
        return 1
    out = cli(*args[3:])
    print("  ", out.strip().splitlines()[0])
    if not identical(reference, resumed):
        print("FAIL: resumed solve diverged", file=sys.stderr)
        return 1
    print("   bit-identical after resume")

    # ---------------------------------------------- 4: chaotic serving
    paged, ready = tmp / "db.pgdb", tmp / "ready"
    cli("page", str(reference), str(paged), "--block-positions", "256")
    dbs = DatabaseSet.load(reference)
    print("== serve: drop every 7th connection, sever after 100 responses")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(paged),
         "--cache-kb", "16", "--ready-file", str(ready),
         "--inject-fault", "drop-conn:every=7,after=100"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        host, port = wait_for(ready).split()
        rng = np.random.default_rng(2026)
        ids = dbs.ids()
        pairs = [
            (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
            for d in rng.choice(ids, size=N_PROBES)
        ]
        expected = np.array([int(dbs[d][i]) for d, i in pairs],
                            dtype=np.int16)
        with BinaryProbeClient(host, int(port)) as client:
            got = [client.probe(*pairs[k]) for k in range(N_PROBES // 2)]
            for start in range(N_PROBES // 2, N_PROBES, BATCH):
                got.extend(client.probe_many(pairs[start:start + BATCH]))
            reconnects = client.reconnects
        mismatches = int((np.asarray(got, dtype=np.int16)
                          != expected).sum())
        print(f"   probed {N_PROBES} positions: {mismatches} mismatches, "
              f"{reconnects} reconnects")
        if mismatches:
            return 1
        if reconnects < 1:
            print("FAIL: the chaos server never forced a reconnect",
                  file=sys.stderr)
            return 1

        print("== SIGINT -> graceful shutdown")
        server.send_signal(signal.SIGINT)
        output, _ = server.communicate(timeout=30)
        if server.returncode != 0 or "server stopped" not in output:
            print(f"unclean shutdown (rc={server.returncode}):\n{output}",
                  file=sys.stderr)
            return 1
        print("== chaos smoke OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
