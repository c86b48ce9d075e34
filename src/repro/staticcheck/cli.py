"""Command-line entry point for the checker (``repro staticcheck``).

One gate: a text report on stdout and an exit code — 0 clean,
1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .framework import all_checkers, run_paths
from .reporters import render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Populate ``parser`` (shared by ``repro staticcheck`` and
    ``python -m repro.staticcheck.cli``)."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check "
                             "(default: src)")
    parser.add_argument("--root", default=".",
                        help="repository root for relative paths and "
                             "doc lookups (default: cwd)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--verbose", action="store_true",
                        help="list suppressed findings too")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def run(args: argparse.Namespace) -> int:
    """Execute the checker for parsed ``args``; returns the exit code
    (0 clean, 1 findings, 2 usage error)."""
    if args.list_rules:
        for rule_id, cls in all_checkers().items():
            print(f"{rule_id}  {cls.title}")
            print(f"       {cls.rationale}")
        return 0
    rules = (None if args.rules is None
             else [r for r in args.rules.split(",") if r])
    try:
        report = run_paths(args.paths, root=Path(args.root), rules=rules)
    except ValueError as exc:
        print(f"staticcheck: {exc}", file=sys.stderr)
        return 2
    print(render_text(report, verbose=args.verbose))
    return report.exit_code


def main(argv=None) -> int:
    """Standalone entry point (``python -m repro.staticcheck.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro staticcheck",
        description="run the repo's invariant checkers",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
