"""Child processes and scratch space, with teardown that always runs.

Every process the benchmark starts and every directory it creates is
registered with one :class:`Sandbox`; leaving the ``with`` block — on
success, on an exception, on Ctrl-C or SIGTERM — interrupts the
children, escalates to SIGKILL, reaps every one of them and removes the
scratch directory.  A child that dies mid-run is never restarted; the
workload that owns it counts the failure.

Processes the harness did not start itself (helpers of the program under
test that outlive their parent) are caught one level up: ``run.py`` runs
under :func:`supervised`, which does not return before every descendant
has ended.

The scratch root lives under ``bench/out`` and is installed as the
process's temp directory, so library code that calls ``tempfile``
(``launch_cluster`` does) also stays inside the checkout.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["Sandbox", "ChildFailed", "supervised"]

#: How long a child may take to announce itself / to exit after SIGINT.
READY_SECONDS = 30.0
GRACE_SECONDS = 5.0


class ChildFailed(RuntimeError):
    """A child process exited or stayed silent when it had to answer."""


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def _children() -> list:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # ended between listdir and read
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _kill_children(*_signal_args) -> None:
    """SIGALRM handler: the grace period is over.  Re-armed, because a
    killed child's own children only become ours once it is gone."""
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    signal.alarm(1)


def supervised(main) -> int:
    """Run ``main()`` in a forked child and return its exit status only
    once every process it started — at any depth — has ended.

    A :class:`Sandbox` reaps the children the harness knows about; this
    catches the ones it cannot: helpers the program under test starts
    that end *after* their parent (``multiprocessing``'s resource
    tracker, started by ``ShmArena``, runs until the interpreter that
    owns it is gone) and anything a crashed run leaves behind.  This
    process becomes a child subreaper, so such orphans are re-parented
    here instead of to init and can be waited for.  It imports nothing
    heavy and only sleeps in ``waitpid`` while ``main`` measures.
    SIGINT/SIGTERM are passed on to ``main`` (whose sandbox tears down);
    what still runs ``GRACE_SECONDS`` later is killed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still waited for below
    worker = os.fork()
    if worker == 0:
        return main()

    def pass_on(signum, frame):
        try:
            os.kill(worker, signum)
        except ProcessLookupError:
            pass
        signal.alarm(int(GRACE_SECONDS))

    signal.signal(signal.SIGALRM, _kill_children)
    signal.signal(signal.SIGINT, pass_on)
    signal.signal(signal.SIGTERM, pass_on)
    _, status = os.waitpid(worker, 0)
    # The worker is gone; whatever it left is now a child of this process.
    signal.alarm(int(GRACE_SECONDS))
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break  # no child left, running or not
    signal.alarm(0)
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


class Sandbox:
    """Scratch directory + registry of children, torn down on exit."""

    def __init__(self, out_dir: Path):
        self._out_dir = Path(out_dir)
        self.root: Path | None = None
        self._children: list = []
        self._saved_tempdir = None
        self._saved_env = None
        self._saved_sigterm = None

    def __enter__(self) -> "Sandbox":
        self._out_dir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=self._out_dir))
        self._saved_tempdir = tempfile.tempdir
        self._saved_env = os.environ.get("TMPDIR")
        tempfile.tempdir = str(self.root)
        os.environ["TMPDIR"] = str(self.root)
        # SIGTERM takes the same path as Ctrl-C so ``finally`` blocks run.
        self._saved_sigterm = signal.signal(signal.SIGTERM, _raise_interrupt)
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.stop_children()
        finally:
            signal.signal(signal.SIGTERM, self._saved_sigterm)
            tempfile.tempdir = self._saved_tempdir
            if self._saved_env is None:
                os.environ.pop("TMPDIR", None)
            else:
                os.environ["TMPDIR"] = self._saved_env
            shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------ scratch

    def mkdir(self, name: str) -> Path:
        """A fresh directory under the scratch root."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.root))

    # ----------------------------------------------------------- children

    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        """Start and register a child (stderr passes through)."""
        proc = subprocess.Popen(argv, **kwargs)
        self._children.append(proc)
        return proc

    def adopt(self, closer) -> None:
        """Register an object with ``shutdown()`` that owns children of
        its own (a ``ClusterSupervisor``)."""
        self._children.append(closer)

    def spawn_python(self, script: Path, *args) -> tuple:
        """Start ``python script args…`` and wait for the one line it
        prints when ready; returns ``(process, line fields)``."""
        proc = self.spawn(
            [sys.executable, str(script), *map(str, args)],
            stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([proc.stdout], [], [], READY_SECONDS)
        line = proc.stdout.readline() if ready else ""
        if not line.strip():
            self.stop(proc)
            raise ChildFailed(
                f"{script.name} printed no ready line "
                f"(exit status {proc.returncode})"
            )
        return proc, line.split()

    def stop(self, child) -> None:
        """Stop and reap one child (idempotent), and forget it."""
        if child in self._children:
            self._children.remove(child)
        if not isinstance(child, subprocess.Popen):
            child.shutdown(grace_seconds=GRACE_SECONDS)
            return
        if child.poll() is None:
            child.send_signal(signal.SIGINT)
            try:
                child.wait(timeout=GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                child.kill()
        child.wait()
        if child.stdout is not None:
            child.stdout.close()

    def stop_children(self) -> None:
        """Stop every registered child, newest first; keeps going past a
        child whose teardown raises so none is left running."""
        first_error = None
        for child in reversed(list(self._children)):
            try:
                self.stop(child)
            except Exception as exc:  # noqa: BLE001 — teardown boundary:
                # the remaining children must still be reaped.
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
