"""Shared fixtures for the serving tests.

Built on :mod:`tests.workloads`: one solved ``DatabaseSet`` per game
and one paged conversion per game, each computed once per *session* and
reused by every test (and by the cluster suite) instead of re-solving
or re-paging per test.  ``backend_service`` parametrizes a
:class:`~repro.serve.service.ProbeService` over both storage backends
— memory and paged-with-tiny-cache — so differential tests cover both
without hand-rolled loops.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve.service import ProbeService

from tests.workloads import (  # noqa: F401 — re-exported for the suite
    BLOCK_POSITIONS,
    GAMES,
    paged_store_path,
    solved_set,
)

#: Cache budget used in the differential sweeps: two blocks' worth of
#: int16 values — far smaller than any solved database in the fixtures.
SMALL_BUDGET = 2 * BLOCK_POSITIONS * 2


#: Threads in the serving stress tests (more than this box has cores).
N_THREADS = 6


def run_threads(worker, n=N_THREADS):
    """Run ``worker(thread_index)`` on ``n`` threads behind a barrier;
    re-raise the first failure."""
    barrier = threading.Barrier(n)
    failures = []

    def wrapped(i):
        try:
            barrier.wait(timeout=30)
            worker(i)
        except BaseException as exc:  # noqa: BLE001 — reported below
            failures.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,), daemon=True)
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "stress thread hung"
    if failures:
        raise failures[0]


@pytest.fixture(scope="session", params=sorted(GAMES), ids=sorted(GAMES))
def solved(request):
    """(name, game, DatabaseSet) for one of the three games."""
    name = request.param
    game, dbs = solved_set(name)
    return name, game, dbs


@pytest.fixture(scope="session")
def awari_solved():
    """(game, DatabaseSet) for the awari workload (same solve as the
    parametrized ``solved`` fixture — memoized, never re-run)."""
    return solved_set("awari")


@pytest.fixture(scope="session")
def paged_path(solved, tmp_path_factory):
    """Session-wide paged store of the parametrized game."""
    name, _, _ = solved
    return paged_store_path(name, tmp_path_factory)


@pytest.fixture(scope="session")
def awari_paged_path(tmp_path_factory):
    """Session-wide paged store of the awari workload."""
    return paged_store_path("awari", tmp_path_factory)


def make_service(kind, dbs, paged, cache_bytes=SMALL_BUDGET, metrics=None):
    """One ProbeService over the named backend; callers close it."""
    if kind == "memory":
        return ProbeService.from_database_set(dbs, metrics=metrics)
    return ProbeService.from_paged(
        paged, cache_bytes=cache_bytes, metrics=metrics
    )


@pytest.fixture(params=["memory", "paged"])
def backend_service(request, solved, paged_path):
    """(backend kind, ProbeService) — every test using this fixture runs
    against both storage backends over the session-wide stores."""
    name, game, dbs = solved
    service = make_service(request.param, dbs, paged_path)
    yield request.param, service
    service.close()
