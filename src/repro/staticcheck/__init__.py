"""repro.staticcheck — AST-based enforcement of the repo's invariants.

The repo's concurrency and durability contracts (atomic checkpoint
writes, fork-safe pool fan-out, accounted exception handling,
documented CLI flags, socket timeouts, lock discipline, non-blocking
and awaited coroutines) are checked mechanically here instead of by
convention.  Metric names are checked by the registry itself (see
:mod:`repro.obs.catalog`).
``repro staticcheck src/ tests/ scripts/`` runs every rule (RA001,
RA002, RA004–RA009) and prints a text report; a finding makes the exit
code non-zero.  See
docs/STATICCHECK.md for the rule catalog, the audit that keeps each
rule, and the suppression syntax.
"""

from .framework import (
    Checker,
    FileContext,
    Finding,
    Project,
    Report,
    all_checkers,
    check_source,
    register,
    run_paths,
)
from .reporters import render_text

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "Project",
    "Report",
    "all_checkers",
    "check_source",
    "register",
    "run_paths",
    "render_text",
]
