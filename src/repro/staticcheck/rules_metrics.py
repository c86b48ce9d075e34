"""RA003 — metric names must come from the generated catalog.

PR 4 spent real effort re-aligning ``moves_generated`` and
``exit_lookups`` between the sequential and multiprocess builders after
their free-typed metric strings drifted apart.  This rule makes that
class of bug a lint error: every name passed to the
:class:`~repro.obs.registry.MetricsRegistry` instruments must be (a
scoped suffix of) an entry in the generated catalog
``src/repro/obs/names.py``, whose declarative source of truth is
:mod:`repro.staticcheck.catalog`.

Accepted argument shapes at a call site:

* a string literal that is a catalog name (``"multiproc.databases"``),
  a scoped suffix of one (``"hits"`` inside the ``serve.cache`` scope),
  or a family prefix;
* an f-string / ``+``-concatenation whose literal head matches a
  declared dynamic family (``f"sent.{tag}"`` → ``simnet.sent.``);
* a constant imported from ``repro.obs.names``.

Anything else — a misspelled literal, an undeclared dynamic family, an
arbitrary variable — is a finding.  The project-level pass also fails
if the committed ``names.py`` is stale with respect to the catalog, or
if ``docs/OBSERVABILITY.md`` mentions a metric the catalog lacks.
"""

from __future__ import annotations

import ast

from . import catalog
from .framework import Checker, register

#: The registry itself forwards caller-supplied names; the generated
#: module is data.
_EXEMPT = (
    "src/repro/obs/registry.py",
    "src/repro/obs/names.py",
)

#: MetricsRegistry methods whose first argument is a metric name.
_METHODS = {"inc", "set_gauge", "observe", "observe_seconds", "phase"}


def _catalog_sets():
    from ..obs import names as names_mod

    universe = frozenset(names_mod.NAMES) | names_mod.DYNAMIC_EXAMPLES
    return universe, tuple(names_mod.DYNAMIC_PREFIXES)


def _literal_ok(token: str, universe, prefixes) -> bool:
    if token in universe:
        return True
    if any(n.endswith("." + token) for n in universe):
        return True  # scoped registry supplies the family prefix
    if any(n.startswith(token + ".") for n in universe):
        return True
    return any(token.startswith(p) for p in prefixes)


def _dynamic_head_ok(head: str, prefixes) -> bool:
    """A computed name's literal head must pin a declared dynamic
    family — either spelled in full (``simnet.sent.``) or as the scoped
    tail of one (``op.`` under the ``aserve.server`` scope)."""
    if not head:
        return False
    return any(
        head.startswith(p) or p.endswith("." + head) for p in prefixes
    )


def _fstring_head(node: ast.JoinedStr) -> str:
    parts = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        else:
            break
    return "".join(parts)


class _NamesImports(ast.NodeVisitor):
    """Names under which this module can see the generated catalog."""

    def __init__(self):
        self.constants: set = set()  # from repro.obs.names import X
        self.modules: set = set()  # from repro.obs import names [as n]

    def visit_ImportFrom(self, node: ast.ImportFrom):
        module = node.module or ""
        if module.endswith("names"):
            for alias in node.names:
                self.constants.add(alias.asname or alias.name)
        elif module.endswith("obs"):
            for alias in node.names:
                if alias.name == "names":
                    self.modules.add(alias.asname or alias.name)


@register
class MetricNameChecker(Checker):
    """Flag metric names absent from the generated catalog (module doc)."""

    rule_id = "RA003"
    title = "metric names must exist in the generated catalog"
    rationale = (
        "Free-typed metric strings drift between backends and break the "
        "counter-parity invariants; every name passed to inc/set_gauge/"
        "observe/phase must be a catalog entry (or scoped suffix / "
        "declared dynamic family), preferably imported from "
        "repro.obs.names."
    )

    def applies_to(self, relpath: str) -> bool:
        return (
            relpath.startswith("src/repro/")
            and relpath not in _EXEMPT
        )

    def check_file(self, ctx):
        universe, prefixes = _catalog_sets()
        imports = _NamesImports()
        imports.visit(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METHODS
                    and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if not _literal_ok(arg.value, universe, prefixes):
                    yield (arg.lineno, arg.col_offset,
                           f"metric name {arg.value!r} is not in the "
                           f"catalog (repro.obs.names); add it to "
                           f"repro.staticcheck.catalog and regenerate")
            elif isinstance(arg, ast.JoinedStr):
                head = _fstring_head(arg)
                if not _dynamic_head_ok(head, prefixes):
                    yield (arg.lineno, arg.col_offset,
                           f"computed metric name with head {head!r} "
                           f"does not match a declared dynamic family "
                           f"(DYNAMIC_PREFIXES)")
            elif (isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, ast.Add)
                    and isinstance(arg.left, ast.Constant)
                    and isinstance(arg.left.value, str)):
                if not _dynamic_head_ok(arg.left.value, prefixes):
                    yield (arg.lineno, arg.col_offset,
                           f"computed metric name with head "
                           f"{arg.left.value!r} does not match a "
                           f"declared dynamic family")
            elif isinstance(arg, ast.Name):
                if arg.id not in imports.constants:
                    yield (arg.lineno, arg.col_offset,
                           f"metric name variable {arg.id!r} is not a "
                           f"constant imported from repro.obs.names")
            elif isinstance(arg, ast.Attribute):
                recv = arg.value
                if not (isinstance(recv, ast.Name)
                        and recv.id in imports.modules):
                    yield (arg.lineno, arg.col_offset,
                           f"metric name expression "
                           f"{ast.unparse(arg)!r} cannot be checked; "
                           f"use a repro.obs.names constant or literal")
            else:
                yield (arg.lineno, arg.col_offset,
                       "metric name must be a literal, a declared "
                       "dynamic-family f-string, or a repro.obs.names "
                       "constant")

    def finalize(self, project):
        path = catalog.names_path()
        try:
            committed = path.read_text()
        except OSError:
            committed = None
        if committed != catalog.generate_source():
            yield ("src/repro/obs/names.py", 1,
                   "generated catalog is stale; run "
                   "'python -m repro.staticcheck.catalog --write'")
        doc = project.read_doc("docs/OBSERVABILITY.md")
        if doc is not None:
            for token, lineno in catalog.doc_drift(doc):
                yield ("docs/OBSERVABILITY.md", lineno,
                       f"doc mentions metric {token!r} that the catalog "
                       f"does not declare")
