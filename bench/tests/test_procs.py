"""``supervised`` returns only when every descendant of the run has ended."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def run_supervised(body: str) -> subprocess.CompletedProcess:
    """``supervised(main)`` in a fresh interpreter — it forks, becomes a
    subreaper and installs signal handlers, none of which pytest's own
    process should do."""
    script = textwrap.dedent("""
        import subprocess, sys
        sys.path.insert(0, {repo!r})
        from bench.procs import supervised

        def main():
        {body}

        sys.exit(supervised(main))
    """).format(repo=str(REPO), body=textwrap.indent(textwrap.dedent(body), "    "))
    return subprocess.run([sys.executable, "-c", script],
                          stdout=subprocess.PIPE, text=True, timeout=30)


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_the_exit_status_is_mains():
    assert run_supervised("return 7").returncode == 7


def test_it_waits_for_a_helper_that_outlives_its_parent():
    # Like multiprocessing's resource tracker: in a session of its own,
    # never waited for, ending a moment after main has returned.
    done = run_supervised("""
        helper = subprocess.Popen(["sleep", "0.5"], start_new_session=True)
        print(helper.pid, flush=True)
        return 0
    """)
    assert done.returncode == 0
    assert not alive(int(done.stdout.split()[-1]))
