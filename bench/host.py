"""Host fingerprint: enough to tell whether two result files are comparable.

``compare.py`` refuses to issue verdicts across results whose
fingerprints differ (other CPU, other core count, other interpreter) or
whose calibration — a fixed NumPy workload timed on the spot — differs
by more than a tenth: a faster neighbour on a shared box must not read
as a faster program.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

__all__ = ["fingerprint", "calibrate_ms"]

_REPO = Path(__file__).resolve().parent.parent


def calibrate_ms() -> float:
    """Milliseconds for a fixed piece of interpreter-and-NumPy work (the
    mix the program itself is made of): the fastest of five, because
    interference only ever makes a spin slower."""
    data = np.arange(4096, dtype=np.int64)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for step in range(1, 2001):
            total += int((data[::step] * 3).sum())
            table = {key: step for key in range(32)}
            sorted(table, key=lambda key: -key)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_REPO, capture_output=True,
            text=True, timeout=5, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """Taken at the start of a run; the caller adds ``loadavg_end``."""
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg()[0],
        "calib_ms": calibrate_ms(),
    }
