#!/usr/bin/env python
"""ShmArena race-detector smoke test, used by the CI ``staticcheck`` job.

The detector under real fire, driven through the CLI and checked
bit-for-bit against a sequential reference:

1. detector sanity — a deliberately overlapping pair of claims must
   raise ``ShmRaceError`` (in-process)
2. reference — single-process ``repro solve``
3. ``--shm-debug`` solve — bit-identical, and the manifest must report
   ``multiproc.shm_claims_checked``
4. production solve — bit-identical, with non-zero
   ``multiproc.ipc_bytes_saved`` and ``multiproc.shm_segments``; the
   debug counter must NOT appear, and ``shm_segments`` must match the
   debug run (the ledger lives outside the accounting)
5. ``--shm-debug`` with ``kill-worker:chunk=1`` injected — the
   replayed task overwrites its own claim, so the run must stay
   silent (zero overlap reports), bit-identical, with the kill
   actually fired (``resilience.retries >= 1``)

Exits non-zero on any overlap report, mismatch, or missing counter.

Run:  PYTHONPATH=src python scripts/staticcheck_smoke.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

STONES = 5


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


def counters_of(manifest_path: Path) -> dict:
    return json.loads(manifest_path.read_text())["metrics"]["counters"]


def detector_detects() -> bool:
    """The ledger must actually catch a deliberate overlap."""
    from repro.core.shm import ShmArena, ShmRaceError

    with ShmArena(debug=True) as arena:
        arena.alloc("values", (100,), np.int16)
        arena.enable_claims(2)
        arena.claim("values", 0, 60, slot=0, owner=1)
        arena.claim("values", 50, 100, slot=1, owner=2)
        try:
            arena.check_claims()
        except ShmRaceError:
            return True
    return False


def main() -> int:
    print("== detector sanity: overlapping claims must raise")
    if not detector_detects():
        print("FAIL: a deliberate overlap went undetected", file=sys.stderr)
        return 1

    tmp = Path(tempfile.mkdtemp(prefix="staticcheck-smoke-"))
    reference = tmp / "reference.npz"
    print(f"== reference: sequential {STONES}-stone solve")
    cli("solve", "--stones", str(STONES), "--out", str(reference))

    # --------------------------------------------- 3: --shm-debug solve
    dbg_out, dbg_manifest = tmp / "debug.npz", tmp / "debug.json"
    print("== --shm-debug solve: 2 workers, 256-position chunks")
    cli("solve", "--stones", str(STONES), "--workers", "2",
        "--scan-chunk", "256", "--shm-debug",
        "--out", str(dbg_out), "--metrics-out", str(dbg_manifest))
    if not identical(reference, dbg_out):
        print("FAIL: --shm-debug solve diverged", file=sys.stderr)
        return 1
    dbg = counters_of(dbg_manifest)
    claims = dbg.get("multiproc.shm_claims_checked", 0)
    print(f"   bit-identical; shm_claims_checked={claims}")
    if claims < 1:
        print("FAIL: debug run validated no claims", file=sys.stderr)
        return 1

    # ------------------------------- 4: production run, counter absent
    plain_out, plain_manifest = tmp / "plain.npz", tmp / "plain.json"
    print("== production solve: the debug counter must stay absent")
    cli("solve", "--stones", str(STONES), "--workers", "2",
        "--scan-chunk", "256",
        "--out", str(plain_out), "--metrics-out", str(plain_manifest))
    if not identical(reference, plain_out):
        print("FAIL: production solve diverged", file=sys.stderr)
        return 1
    plain = counters_of(plain_manifest)
    saved = plain.get("multiproc.ipc_bytes_saved", 0)
    segments = plain.get("multiproc.shm_segments", 0)
    print(f"   bit-identical; ipc_bytes_saved={saved} shm_segments={segments}")
    if saved < 1 or segments < 1:
        print("FAIL: production run reported no arena traffic",
              file=sys.stderr)
        return 1
    if "multiproc.shm_claims_checked" in plain:
        print("FAIL: production run reports the debug counter",
              file=sys.stderr)
        return 1
    if plain.get("multiproc.shm_segments") != dbg.get(
            "multiproc.shm_segments"):
        print("FAIL: the claims ledger leaked into shm_segments",
              file=sys.stderr)
        return 1

    # ------------------------------ 5: kill-replay must stay silent
    fault_out, fault_manifest = tmp / "fault.npz", tmp / "fault.json"
    print("== --shm-debug with one worker SIGKILLed mid-scan")
    cli("solve", "--stones", str(STONES), "--workers", "2",
        "--scan-chunk", "256", "--shm-debug",
        "--inject-fault", "kill-worker:chunk=1",
        "--fault-state-dir", str(tmp / "faults"),
        "--out", str(fault_out), "--metrics-out", str(fault_manifest))
    if not identical(reference, fault_out):
        print("FAIL: fault-injected debug solve diverged", file=sys.stderr)
        return 1
    fault = counters_of(fault_manifest)
    retries = fault.get("resilience.retries", 0)
    claims = fault.get("multiproc.shm_claims_checked", 0)
    print(f"   bit-identical; retries={retries} "
          f"shm_claims_checked={claims}")
    if retries < 1:
        print("FAIL: the injected kill never fired", file=sys.stderr)
        return 1
    if claims < 1:
        print("FAIL: kill-replay run validated no claims", file=sys.stderr)
        return 1

    print("== staticcheck smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
