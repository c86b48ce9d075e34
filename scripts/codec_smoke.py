#!/usr/bin/env python
"""Bit-packed codec smoke test, used by the CI ``codec-smoke`` job.

Drives the packed codec the way an operator would, end to end:

1. ``repro solve``  — build a small awari database archive
2. ``repro page --codec <codec>`` for every codec — sizes compared,
   written to ``codec_smoke.json`` (uploaded as a CI artifact)
3. ``repro serve``  — serve the **packed** store in a subprocess
4. probe it: 1,000 verified probes through
   :class:`~repro.aserve.client.BinaryProbeClient`, every value checked
   against the in-memory ground truth, plus the mmap local fast path
   (bulk-unpack mode) over the same packed file
5. SIGINT the server and require a clean, zero-status shutdown

Exits non-zero on any mismatch, size regression, or protocol failure.

Run:  PYTHONPATH=src python scripts/codec_smoke.py [artifact.json]
"""

import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

STONES = 5
N_PROBES = 1_000
BATCH = 64
CODECS = ("zlib", "raw", "packed", "packed+zlib")


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
        capture_output=True, text=True, timeout=120,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stdout}{result.stderr}"
        )
    return result.stdout


def main() -> int:
    from repro.aserve.client import BinaryProbeClient
    from repro.aserve.local import LocalProbeClient
    from repro.db.store import DatabaseSet
    from repro.serve.pagedstore import PagedStore

    artifact = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.gettempdir()
    ) / "codec_smoke.json"
    tmp = Path(tempfile.mkdtemp(prefix="codec-smoke-"))
    archive, ready = tmp / "db.npz", tmp / "ready"

    print(f"== solve: {STONES}-stone awari ->", archive)
    cli("solve", "--stones", str(STONES), "--out", str(archive))
    dbs = DatabaseSet.load(archive)

    sizes = {}
    for codec in CODECS:
        path = tmp / f"db-{codec.replace('+', '-')}.pgdb"
        out = cli("page", str(archive), str(path),
                  "--block-positions", "256", "--codec", codec)
        print(f"== page --codec {codec}:", out.strip().splitlines()[-1])
        with PagedStore(path) as store:
            stored = sum(
                store.stored_block_bytes(db_id, b)
                for db_id in store.ids()
                for b in range(store.n_blocks(db_id))
            )
        sizes[codec] = {
            "file_bytes": path.stat().st_size,
            "stored_bytes": stored,
        }
    if sizes["packed"]["stored_bytes"] >= sizes["raw"]["stored_bytes"]:
        print("packed codec did not beat raw on disk", file=sys.stderr)
        return 1

    packed_path = tmp / "db-packed.pgdb"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(packed_path),
         "--cache-kb", "4", "--ready-file", str(ready)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        host, port = wait_for(ready).split()
        print(f"== server ready on {host}:{port} (packed store, cache 4 KiB)")

        rng = np.random.default_rng(2026)
        ids = dbs.ids()
        pairs = [
            (int(d), int(rng.integers(0, dbs[int(d)].shape[0])))
            for d in rng.choice(ids, size=N_PROBES)
        ]
        expected = np.array(
            [int(dbs[d][i]) for d, i in pairs], dtype=np.int16
        )

        with BinaryProbeClient(host, int(port)) as client:
            assert client.ping(), "ping failed"
            info = client.info()
            if info.get("codec") != "packed":
                print(f"server reports codec {info.get('codec')!r}, "
                      "wanted 'packed'", file=sys.stderr)
                return 1
            got = [client.probe(*pairs[k]) for k in range(N_PROBES // 2)]
            for start in range(N_PROBES // 2, N_PROBES, BATCH):
                got.extend(client.probe_many(pairs[start:start + BATCH]))
            mismatches = int((np.asarray(got, dtype=np.int16)
                              != expected).sum())
            stats = client.stats()
        print(f"== probed {N_PROBES} positions over TCP: "
              f"{mismatches} mismatches, cache hit rate "
              f"{100 * stats['hit_rate']:.0f}%")
        if mismatches:
            return 1

        with LocalProbeClient(packed_path) as local:
            if local.mode != "unpacked":
                print(f"local fast path mode {local.mode!r}, wanted "
                      "'unpacked'", file=sys.stderr)
                return 1
            local_got = local.probe_many(pairs)
        local_mismatches = int((local_got != expected).sum())
        print(f"== mmap bulk-unpack path: {local_mismatches} mismatches")
        if local_mismatches:
            return 1

        result = {
            "schema": "repro/codec-smoke/v1",
            "stones": STONES,
            "positions": int(dbs.total_positions),
            "value_bytes": int(2 * dbs.total_positions),
            "n_probes": N_PROBES,
            "sizes": sizes,
            "packed_vs_raw": (
                sizes["raw"]["stored_bytes"]
                / sizes["packed"]["stored_bytes"]
            ),
        }
        artifact.write_text(json.dumps(result, indent=2) + "\n")
        print(f"== size artifact -> {artifact} "
              f"(packed {result['packed_vs_raw']:.2f}x smaller than raw)")

        print("== SIGINT -> graceful shutdown")
        server.send_signal(signal.SIGINT)
        output, _ = server.communicate(timeout=30)
        if server.returncode != 0 or "server stopped" not in output:
            print(f"unclean shutdown (rc={server.returncode}):\n{output}",
                  file=sys.stderr)
            return 1
        print("== smoke OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
