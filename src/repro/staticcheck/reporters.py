"""Text rendering of a checker :class:`Report`."""

from __future__ import annotations

from .framework import Report

__all__ = ["render_text"]


def render_text(report: Report, verbose: bool = False) -> str:
    """Human-readable findings, one ``path:line:col RULE message`` per
    line, with a summary footer."""
    lines = []
    for finding in report.findings:
        lines.append(f"{finding.location()} {finding.rule} "
                     f"{finding.message}")
    if verbose:
        for finding in report.suppressed:
            lines.append(f"{finding.location()} {finding.rule} "
                         f"suppressed: {finding.justification}")
    counts = report.by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}×{n}" for rule, n in
                             sorted(counts.items()))
        lines.append(f"{len(report.findings)} finding(s) "
                     f"({per_rule}) in {report.files_scanned} file(s); "
                     f"{len(report.suppressed)} suppressed")
    else:
        lines.append(f"clean: {report.files_scanned} file(s), "
                     f"{len(report.suppressed)} suppression(s)")
    return "\n".join(lines)
