#!/usr/bin/env python
"""End-to-end serving smoke test, used by the CI ``aserve-smoke`` job.

The full solve → page → serve → probe lifecycle against a real server
subprocess:

1. solve — a fault-free reference database set
2. ``repro page`` — a zlib paged store plus a ``--codec raw`` twin for
   the mmap path
3. ``repro serve`` — the probe server as a subprocess, readiness via
   ``--ready-file``
4. 1,000 verified probes through one pipelined
   :class:`~repro.aserve.client.BinaryProbeClient` connection —
   every batch in flight at once, every answer checked — then single
   ``probe`` calls on the same client
5. a deliberate garbage frame on the same port that must come back as
   an error frame on sequence id 0, followed by a close
6. :class:`~repro.aserve.local.LocalProbeClient` over the raw store —
   the zero-copy mmap path, verified against the same oracle
7. ``repro probe`` — the CLI front door: ``--endpoint`` in its TCP and
   local forms, and ``--port … --board … --stats``
8. SIGINT — the server drains and exits 0 printing ``server stopped``

Exits non-zero on any mismatch or unclean shutdown; writes an
``aserve-smoke.json`` artifact with the run's numbers.

Run:  PYTHONPATH=src python scripts/aserve_smoke.py [artifact.json]
"""

import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

STONES = 6
N_PROBES = 1_000
N_SINGLES = 200
BATCH = 64
PIPELINE_DEPTH = 16


def wait_for(path: Path, timeout: float = 60.0) -> str:
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


def garbage_frame_rejected(host: str, port: int) -> bool:
    """Send a garbage first frame; the reply must be one error frame on
    sequence id 0 and the connection must close — never a hang."""
    from repro.aserve import frames

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(frames.pack_frame(b"\x00\xde\xad\xbf"))
        with sock.makefile("rb") as stream:
            head = stream.read(frames.LENGTH.size)
            if len(head) < frames.LENGTH.size:
                return False
            (length,) = frames.LENGTH.unpack(head)
            response = frames.decode_response(stream.read(length))
            closed = stream.read(1) == b""
    return response.seq == 0 and response.error is not None and closed


def main() -> int:
    from repro.aserve.client import BinaryProbeClient
    from repro.aserve.local import LocalProbeClient
    from repro.db.store import DatabaseSet

    artifact = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "aserve-smoke.json"
    )
    tmp = Path(tempfile.mkdtemp(prefix="aserve-smoke-"))
    reference = tmp / "reference.npz"
    zlib_store = tmp / "store-zlib.pgdb"
    raw_store = tmp / "store-raw.pgdb"
    ready = tmp / "ready"

    print(f"== reference: fault-free {STONES}-stone solve")
    cli("solve", "--stones", str(STONES), "--out", str(reference))
    dbs = DatabaseSet.load(reference)

    print("== page: zlib store + raw twin for the mmap path")
    cli("page", str(reference), str(zlib_store), "--block-positions", "256")
    cli("page", str(reference), str(raw_store), "--block-positions", "256",
        "--codec", "raw")

    rng = np.random.default_rng(2026)
    ids = dbs.ids()
    pairs = [
        (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
        for d in rng.choice(ids, size=N_PROBES)
    ]
    expected = np.array([int(dbs[d][i]) for d, i in pairs], dtype=np.int16)
    batches = [pairs[k:k + BATCH] for k in range(0, N_PROBES, BATCH)]

    print("== serve (subprocess)")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(zlib_store),
         "--cache-kb", "64", "--ready-file", str(ready)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        host, port = wait_for(ready).split()
        port = int(port)
        print(f"   listening on {host}:{port}")

        print(f"== {N_PROBES} pipelined binary probes "
              f"(depth {PIPELINE_DEPTH}) on one connection")
        with BinaryProbeClient(host, port) as client:
            got: list = []
            for first in range(0, len(batches), PIPELINE_DEPTH):
                got.extend(np.concatenate(
                    client.pipeline(batches[first:first + PIPELINE_DEPTH])
                ))
            binary_mismatches = int(
                (np.asarray(got, dtype=np.int16) != expected).sum()
            )
            single_mismatches = sum(
                client.probe(d, i) != int(expected[k])
                for k, (d, i) in enumerate(pairs[:N_SINGLES])
            )
            stats = client.stats()
        print(f"   {binary_mismatches} mismatches, {single_mismatches} "
              f"on {N_SINGLES} single probes (backend {stats['backend']})")
        if binary_mismatches or single_mismatches:
            print("FAIL: binary answers diverged", file=sys.stderr)
            return 1

        print("== garbage first frame -> error frame on seq 0, then close")
        if not garbage_frame_rejected(host, port):
            print("FAIL: garbage frame was not cleanly rejected",
                  file=sys.stderr)
            return 1
        print("   rejected and closed")

        print("== zero-copy mmap local path (raw codec)")
        with LocalProbeClient(raw_store) as client:
            local_got = np.concatenate(
                [client.probe_many(b) for b in batches]
            )
        local_mismatches = int((local_got != expected).sum())
        print(f"   {local_mismatches} mismatches")
        if local_mismatches:
            print("FAIL: mmap local path diverged", file=sys.stderr)
            return 1

        print("== CLI probe: TCP endpoint and local endpoint")
        top, want = ids[-1], f"value {int(dbs[ids[-1]][0]):+d}"
        for endpoint in (f"{host}:{port}", str(raw_store)):
            out = cli("probe", "--endpoint", endpoint,
                      "--db", str(top), "--index", "0")
            first = out.strip().splitlines()[0]
            print(f"   {endpoint} -> {first}")
            if want not in first:
                print(f"FAIL: CLI probe answered {first!r}, "
                      f"wanted {want!r}", file=sys.stderr)
                return 1
        board = ",".join(["0"] * 7 + ["1", "1", "1", "1", "1"])
        out = cli("probe", "--port", str(port), "--board", board, "--stats")
        if "value for the mover" not in out or "hit_rate" not in out:
            print("FAIL: CLI best-move/stats output malformed",
                  file=sys.stderr)
            return 1
        print("   --port --board --stats -> "
              + out.strip().splitlines()[0])

        print("== SIGINT -> graceful shutdown")
        server.send_signal(signal.SIGINT)
        output, _ = server.communicate(timeout=30)
        if server.returncode != 0 or "server stopped" not in output:
            print(
                f"unclean shutdown (rc={server.returncode}):\n{output}",
                file=sys.stderr,
            )
            return 1

        artifact.write_text(json.dumps({
            "stones": STONES,
            "probes": N_PROBES,
            "pipeline_depth": PIPELINE_DEPTH,
            "binary_mismatches": binary_mismatches,
            "single_mismatches": single_mismatches,
            "local_mismatches": local_mismatches,
        }, indent=2, sort_keys=True) + "\n")
        print(f"== aserve smoke OK (artifact: {artifact})")
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
