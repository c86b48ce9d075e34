"""RA004 — exception handlers in worker/server paths must account.

A fault-tolerant system is allowed to catch broadly — the probe server
must survive any request, the supervised pool must survive any task —
but it is never allowed to *swallow silently*: every broad handler must
re-raise, delegate (log, count via ``repro.obs``, record the failure),
or the operators lose the only signal that something went wrong 40
hours into a solve.

Two shapes are flagged in library code (``src/repro/``):

* a **broad** handler (bare ``except:``, ``except Exception``,
  ``except BaseException``, alone or in a tuple) whose body neither
  ``raise``s nor makes any call — a handler that only ``pass``es,
  assigns, or ``return``s a constant is hiding the failure;
* in the request-path modules (probe server/client, multiprocess
  fan-out, supervised pool), a ``pass``-only handler of *any* type —
  even a narrow ``except OSError: pass`` there drops a client or a
  worker on the floor without a counter.
"""

from __future__ import annotations

import ast

from .framework import Checker, register

_BROAD = {"Exception", "BaseException"}

#: Modules where even a narrow pass-only handler must count the event.
_REQUEST_PATHS = (
    "src/repro/aserve/server.py",
    "src/repro/serve/client.py",
    "src/repro/core/multiproc.py",
    "src/repro/resilience/pool.py",
)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    for t in types:
        if isinstance(t, ast.Name) and t.id in _BROAD:
            return True
        if isinstance(t, ast.Attribute) and t.attr in _BROAD:
            return True
    return False


def _handles(handler: ast.ExceptHandler) -> bool:
    """True if the body re-raises or delegates (makes any call)."""
    for node in ast.walk(handler):
        if isinstance(node, (ast.Raise, ast.Call)):
            return True
    return False


def _pass_only(handler: ast.ExceptHandler) -> bool:
    return all(isinstance(stmt, ast.Pass) for stmt in handler.body)


@register
class ExceptionHygieneChecker(Checker):
    """Flag handlers that swallow failures silently (see module doc)."""

    rule_id = "RA004"
    title = "broad exception handlers must re-raise, log or count"
    rationale = (
        "Catching Exception (or anything, in a request path) and doing "
        "nothing erases the only evidence of a failure; handlers must "
        "re-raise, or delegate to logging / a repro.obs counter / a "
        "failure recorder so the event is observable."
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check_file(self, ctx):
        in_request_path = ctx.relpath in _REQUEST_PATHS
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node):
                if not _handles(node):
                    kind = ("bare except" if node.type is None
                            else f"except {ast.unparse(node.type)}")
                    yield (node.lineno, node.col_offset,
                           f"{kind} swallows the failure; re-raise, "
                           f"log, or count it via repro.obs")
            elif in_request_path and _pass_only(node):
                yield (node.lineno, node.col_offset,
                       f"except {ast.unparse(node.type)}: pass in a "
                       f"request path drops the event silently; count "
                       f"it via repro.obs or re-raise")
