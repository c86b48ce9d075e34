"""Checker framework: rule registry, suppressions, file walking.

``repro.staticcheck`` exists because the repo's correctness story rests
on conventions — atomic checkpoint writes, fork-safe pool workers,
accounted exception handling, documented CLI flags — that a month-long parallel solve cannot afford to have silently
broken.  Each convention is a :class:`Checker` subclass registered under
a stable rule id (``RA001``…); the framework parses every file once,
hands the AST to each applicable checker, and filters the findings
through per-line suppression comments.

Suppression syntax (see docs/STATICCHECK.md)::

    risky_call()  # staticcheck: disable=RA001 -- why this one is safe
    # staticcheck: disable-file=RA006 -- whole-file opt-out, same shape

A suppression **must** carry a justification after ``--`` (or an em
dash); one that doesn't — or that names an unknown rule — is itself
reported as an ``RA000`` finding, so the suppression budget stays
visible in review.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Project",
    "Checker",
    "Report",
    "register",
    "all_checkers",
    "run_paths",
    "check_source",
]

#: Rule id reserved for the framework itself (parse errors, bad
#: suppressions); it cannot be suppressed.
FRAMEWORK_RULE = "RA000"

_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*(?P<scope>disable|disable-file)="
    r"(?P<rules>[A-Za-z0-9_,]+)"
    r"(?:\s*(?:--|—|–)\s*(?P<why>\S.*?))?\s*$"
)

#: A comment that *looks* like a suppression attempt; anything matching
#: this but not the full syntax is reported as malformed.  The ``\s*``
#: keeps the regex from matching its own source text.
_HINT_RE = re.compile(r"#\s*staticcheck\s*:")

#: Directory names never walked into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class Project:
    """Shared cross-file state: the repo root and cached doc text."""

    root: Path
    _docs: dict = field(default_factory=dict)

    def flag_documentation(self) -> str:
        """Concatenated README + docs/*.md, the corpus RA005 checks
        CLI flags against."""
        key = "__flags__"
        if key not in self._docs:
            parts = []
            for candidate in [self.root / "README.md"] + sorted(
                (self.root / "docs").glob("*.md")
            ):
                try:
                    parts.append(candidate.read_text())
                except OSError:
                    continue
            self._docs[key] = "\n".join(parts)
        return self._docs[key]


@dataclass
class FileContext:
    """One parsed source file, as handed to every checker."""

    project: Project
    path: Path
    relpath: str  # posix, relative to project.root
    source: str
    tree: ast.Module

    @property
    def lines(self) -> list:
        return self.source.splitlines()


class Checker:
    """Base class: subclass, set the class attributes, register."""

    rule_id = ""
    title = ""
    #: One-paragraph rationale rendered by ``--list-rules`` and the docs.
    rationale = ""

    def applies_to(self, relpath: str) -> bool:
        """Default scope; the runner can be told to ignore it (tests
        exercising fixture files do)."""
        return True

    def check_file(self, ctx: FileContext):
        """Yield ``(line, col, message)`` tuples for one file."""
        return ()


_REGISTRY: dict[str, type] = {}


def register(cls):
    """Class decorator adding a :class:`Checker` to the registry."""
    if not cls.rule_id or cls.rule_id == FRAMEWORK_RULE:
        raise ValueError(f"checker {cls.__name__} needs a real rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_checkers() -> dict:
    """rule id -> checker class, importing the built-in rules once."""
    from . import rules_async  # noqa: F401
    from . import rules_atomic  # noqa: F401
    from . import rules_cliflags  # noqa: F401
    from . import rules_exceptions  # noqa: F401
    from . import rules_forksafe  # noqa: F401
    from . import rules_locks  # noqa: F401
    from . import rules_sockets  # noqa: F401

    return dict(sorted(_REGISTRY.items()))


# ------------------------------------------------------------- suppressions


@dataclass
class _Suppressions:
    """Parsed suppression comments of one file."""

    by_line: dict  # line -> {rule: justification}
    file_level: dict  # rule -> justification
    problems: list  # (line, message) — malformed suppressions

    @classmethod
    def scan(cls, source: str, known_rules) -> "_Suppressions":
        by_line: dict = {}
        file_level: dict = {}
        problems: list = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                if _HINT_RE.search(line):
                    problems.append(
                        (lineno, "malformed staticcheck comment "
                                 "(expected disable=RULE -- justification)")
                    )
                continue
            why = match.group("why") or ""
            rules = [r for r in match.group("rules").split(",") if r]
            if not why:
                problems.append(
                    (lineno, "suppression without a justification "
                             "(append ' -- why this is safe')")
                )
                continue  # an unjustified suppression does not suppress
            for rule in rules:
                if rule not in known_rules:
                    problems.append((lineno, f"unknown rule {rule!r} in "
                                             f"suppression"))
                    continue
                if match.group("scope") == "disable-file":
                    file_level[rule] = why
                else:
                    by_line.setdefault(lineno, {})[rule] = why
        return cls(by_line, file_level, problems)

    def lookup(self, rule: str, line: int):
        """Justification suppressing ``rule`` at ``line``, else None."""
        if rule in self.file_level:
            return self.file_level[rule]
        return self.by_line.get(line, {}).get(rule)


# -------------------------------------------------------------------- run


@dataclass
class Report:
    """Everything one checker run produced."""

    findings: list = field(default_factory=list)  # active (unsuppressed)
    suppressed: list = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def by_rule(self) -> dict:
        counts: dict = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def _iter_py_files(paths, root: Path):
    """Expand files/directories into .py files, deterministically.

    Fixture trees (``.../staticcheck/fixtures/``) hold deliberate
    violations for the checker's own tests, so directory walks skip
    them; naming a fixture file *directly* still checks it.
    """
    seen = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            parts = sub.parts
            if any(part in _SKIP_DIRS for part in parts):
                continue
            if "fixtures" in parts:
                i = parts.index("fixtures")
                if i > 0 and "staticcheck" in parts[i - 1]:
                    continue
            if sub not in seen:
                seen.add(sub)
                yield sub


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_source(source: str, relpath: str, project: Project,
                 checkers, enforce_scope: bool = True) -> Report:
    """Check one in-memory source file (the unit the tests drive)."""
    report = Report(files_scanned=1)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        report.findings.append(Finding(
            FRAMEWORK_RULE, relpath, exc.lineno or 1, exc.offset or 0,
            f"file does not parse: {exc.msg}",
        ))
        return report
    # Suppressions validate against the *full* registry, not just the
    # checkers selected for this run — `--rules RA007` must not turn
    # every unrelated suppression into an RA000.
    suppressions = _Suppressions.scan(
        source, set(all_checkers()) | set(checkers) | {FRAMEWORK_RULE}
    )
    for line, message in suppressions.problems:
        report.findings.append(
            Finding(FRAMEWORK_RULE, relpath, line, 0, message)
        )
    ctx = FileContext(project, Path(relpath), relpath, source, tree)
    for rule_id, checker in checkers.items():
        if enforce_scope and not checker.applies_to(relpath):
            continue
        for line, col, message in checker.check_file(ctx):
            why = suppressions.lookup(rule_id, line)
            finding = Finding(rule_id, relpath, line, col, message,
                              suppressed=why is not None,
                              justification=why or "")
            (report.suppressed if why is not None
             else report.findings).append(finding)
    return report


def run_paths(paths, root=None, rules=None,
              enforce_scope: bool = True) -> Report:
    """Run every (or the selected) checker over files and directories."""
    root = Path(root) if root is not None else Path.cwd()
    project = Project(root=root)
    classes = all_checkers()
    if rules is not None:
        unknown = set(rules) - set(classes)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        classes = {r: classes[r] for r in rules}
    checkers = {rule_id: cls() for rule_id, cls in classes.items()}
    report = Report()
    for path in _iter_py_files(paths, root):
        relpath = _relpath(path, root)
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            report.findings.append(Finding(
                FRAMEWORK_RULE, relpath, 1, 0, f"unreadable file: {exc}"
            ))
            continue
        sub = check_source(source, relpath, project, checkers,
                           enforce_scope=enforce_scope)
        report.findings.extend(sub.findings)
        report.suppressed.extend(sub.suppressed)
        report.files_scanned += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
