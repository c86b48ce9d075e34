"""Exact rule-id and line-number assertions over the seeded fixtures.

Each ``fixtures/raNNN_*.py`` file carries known violations at known
lines; the fixture directory is skipped by tree walks, so the seeds
never fail the CI gate — only these tests see them (by naming the
files directly, with ``enforce_scope=False`` where a rule's normal
scope is ``src/repro/``).
"""

from pathlib import Path

from repro.staticcheck import run_paths
from repro.staticcheck.rules_exceptions import _REQUEST_PATHS

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

SEEDED = (
    "ra001_writes.py",
    "ra002_forksafe.py",
    "ra004_excepts.py",
    "ra005_cli.py",
    "ra006_sockets.py",
    "ra007_guarded.py",
    "ra008_blocking.py",
    "ra009_orphans.py",
)


def _findings(name, rules):
    report = run_paths([str(FIXTURES / name)], root=ROOT, rules=rules,
                       enforce_scope=False)
    return [(f.rule, f.line) for f in report.findings]


class TestSeededViolations:
    def test_ra001_non_atomic_writes(self):
        assert _findings("ra001_writes.py", ["RA001"]) == [
            ("RA001", 8),   # open(path, "w")
            ("RA001", 9),   # json.dump
            ("RA001", 10),  # np.save
            ("RA001", 11),  # Path.write_text
        ]

    def test_ra002_fork_hostile_callables(self):
        assert _findings("ra002_forksafe.py", ["RA002"]) == [
            ("RA002", 15),  # lambda
            ("RA002", 16),  # bound method via .submit
            ("RA002", 17),  # module fn reading a Lock() global
            ("RA002", 25),  # nested function
        ]

    def test_ra004_swallowed_exceptions(self):
        assert _findings("ra004_excepts.py", ["RA004"]) == [
            ("RA004", 7),   # except Exception: return None
            ("RA004", 14),  # tuple containing BaseException, pass-only
        ]

    def test_ra005_undocumented_flag(self):
        assert _findings("ra005_cli.py", ["RA005"]) == [
            ("RA005", 7),  # the undocumented flag; positional skipped
        ]

    def test_ra006_unbounded_socket_calls(self):
        assert _findings("ra006_sockets.py", ["RA006"]) == [
            ("RA006", 10),  # create_connection with no timeout at all
            ("RA006", 14),  # timeout=None keyword
            ("RA006", 18),  # None as the positional timeout
            ("RA006", 22),  # settimeout(None)
            ("RA006", 26),  # setdefaulttimeout(None)
        ]

    def test_ra007_lock_discipline(self):
        assert _findings("ra007_guarded.py", ["RA007"]) == [
            ("RA007", 16),  # bump: no lock anywhere
            ("RA007", 25),  # the unlocked if arm
            ("RA007", 34),  # read after release()
            ("RA007", 40),  # read after the early-return release
            ("RA007", 50),  # holds-lock contract call without the lock
        ]

    def test_ra008_blocking_in_coroutine(self):
        assert _findings("ra008_blocking.py", ["RA008"]) == [
            ("RA008", 12),  # time.sleep
            ("RA008", 17),  # zlib.compress
            ("RA008", 21),  # builtin open
            ("RA008", 25),  # .accept()
            ("RA008", 26),  # .recv()
        ]

    def test_ra009_orphaned_coroutines(self):
        assert _findings("ra009_orphans.py", ["RA009"]) == [
            ("RA009", 14),  # coroutine never awaited
            ("RA009", 15),  # create_task handle dropped
            ("RA009", 28),  # async method without await
        ]

    def test_all_rules_fire_with_correct_locations(self):
        """The acceptance gate: one run over every seeded fixture
        reports every rule id at exactly the seeded file:line."""
        report = run_paths([str(FIXTURES / name) for name in SEEDED],
                           root=ROOT, enforce_scope=False)
        found = {(f.rule, Path(f.path).name, f.line)
                 for f in report.findings}
        assert found == {
            ("RA001", "ra001_writes.py", 8),
            ("RA001", "ra001_writes.py", 9),
            ("RA001", "ra001_writes.py", 10),
            ("RA001", "ra001_writes.py", 11),
            ("RA002", "ra002_forksafe.py", 15),
            ("RA002", "ra002_forksafe.py", 16),
            ("RA002", "ra002_forksafe.py", 17),
            ("RA002", "ra002_forksafe.py", 25),
            ("RA004", "ra004_excepts.py", 7),
            ("RA004", "ra004_excepts.py", 14),
            ("RA005", "ra005_cli.py", 7),
            ("RA006", "ra006_sockets.py", 10),
            ("RA006", "ra006_sockets.py", 14),
            ("RA006", "ra006_sockets.py", 18),
            ("RA006", "ra006_sockets.py", 22),
            ("RA006", "ra006_sockets.py", 26),
            ("RA007", "ra007_guarded.py", 16),
            ("RA007", "ra007_guarded.py", 25),
            ("RA007", "ra007_guarded.py", 34),
            ("RA007", "ra007_guarded.py", 40),
            ("RA007", "ra007_guarded.py", 50),
            ("RA008", "ra008_blocking.py", 12),
            ("RA008", "ra008_blocking.py", 17),
            ("RA008", "ra008_blocking.py", 21),
            ("RA008", "ra008_blocking.py", 25),
            ("RA008", "ra008_blocking.py", 26),
            ("RA009", "ra009_orphans.py", 14),
            ("RA009", "ra009_orphans.py", 15),
            ("RA009", "ra009_orphans.py", 28),
        }


class TestRuleScopes:
    def test_ra004_request_paths_exist(self):
        """A request-path entry naming a deleted module guards nothing."""
        missing = [rel for rel in _REQUEST_PATHS
                   if not (ROOT / rel).is_file()]
        assert missing == []


class TestCleanAndSuppressed:
    def test_clean_fixture_has_no_findings(self):
        report = run_paths([str(FIXTURES / "clean.py")], root=ROOT,
                           enforce_scope=False)
        assert report.findings == []
        assert report.suppressed == []

    def test_suppression_fixture(self):
        report = run_paths([str(FIXTURES / "suppressed.py")], root=ROOT,
                           rules=["RA001"], enforce_scope=False)
        active = [(f.rule, f.line) for f in report.findings]
        assert active == [
            ("RA000", 6), ("RA001", 6),  # suppression missing its why
            ("RA000", 7), ("RA001", 7),  # unknown rule id
            ("RA000", 8), ("RA001", 8),  # malformed comment
        ]
        [kept] = report.suppressed
        assert (kept.rule, kept.line) == ("RA001", 5)
        assert kept.justification == "fixture: a justified suppression"


class TestPrefixCacheRace:
    """RA007 must light up the pre-fix ``BlockCache`` — the race this
    PR fixed.  ``ra007_cache_prefix.py`` is that cache in miniature
    (lock declared, never taken); the shipped ``serve/cache.py`` is the
    same class with the annotations kept and zero findings."""

    def test_every_racy_method_is_flagged(self):
        report = run_paths([str(FIXTURES / "ra007_cache_prefix.py")],
                           root=ROOT, rules=["RA007"],
                           enforce_scope=False)
        flagged_lines = {f.line for f in report.findings}
        assert flagged_lines == {29, 31, 32, 34,          # get
                                 40, 42, 43, 44,          # put
                                 48, 49, 50, 51, 52,      # _evict
                                 56, 57, 58, 59}          # stats
        # Every guarded attribute shows up in at least one finding.
        text = " ".join(f.message for f in report.findings)
        for attr in ("_blocks", "hits", "misses", "evictions",
                     "resident_bytes"):
            assert f"self.{attr} is guarded-by self._lock" in text

    def test_fixed_cache_is_clean(self):
        """The shipped thread-safe cache proves out under the same rule
        (the fixture and this file pin both directions of the fix)."""
        report = run_paths([str(ROOT / "src/repro/serve/cache.py")],
                           root=ROOT, rules=["RA007"])
        assert [(f.rule, f.line) for f in report.findings] == []
