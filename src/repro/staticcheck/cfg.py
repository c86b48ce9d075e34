"""Intraprocedural control-flow graphs over the stdlib ``ast``.

The per-statement pattern matchers of RA001–RA006 cannot see *paths*:
whether a lock is held on every route to an attribute access.  This
module builds the control-flow graph that question needs, one
:class:`CFG` per function (or module), from nothing but the parsed
AST — no third-party dependency, matching the rest of the checker.

The model is deliberately simple and documented here so rule authors
can reason about it:

* A :class:`Block` holds a straight-line run of *simple* statements
  (assignments, expression statements, ``pass``, …).  Compound
  statements (``if``/``for``/``while``/``try``/``with``/``match`` is
  not used in this repo) terminate blocks and contribute edges.
* Every CFG has one synthetic :attr:`~CFG.entry` block and two
  synthetic sinks: :attr:`~CFG.exit` (normal completion — falling off
  the end or ``return``) and :attr:`~CFG.raise_exit` (explicit
  ``raise`` that no enclosing handler catches).
* ``try`` is approximated conservatively for the *explicit* control
  flow: every statement inside a ``try`` body gets its own block with
  an edge to each handler (an exception may interrupt the body at any
  statement boundary), handlers flow to the ``finally``/join, and the
  ``finally`` suite is duplicated on the fall-through and exceptional
  routes so facts computed "after the try" always passed through it.
* *Implicit* exceptions (any call may raise) are **not** modeled as
  edges to the function exit — doing so would make "on all paths"
  vacuous for every analysis.
* ``break``/``continue`` edge to the innermost loop's exit/header;
  loop ``else`` suites run on normal loop exit only.
* ``assert`` falls through on success; the failing route is treated
  like an uncaught raise.

``build_cfg`` accepts a function def (sync or async) or a whole
module; ``function_cfgs`` walks a tree and yields a CFG per function,
which is how the lock-discipline rule (RA007) consumes it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Block", "CFG", "build_cfg", "function_cfgs"]


@dataclass
class Block:
    """One basic block: a straight-line run of simple statements."""

    index: int
    statements: list = field(default_factory=list)
    successors: list = field(default_factory=list)  # Block refs
    predecessors: list = field(default_factory=list)
    #: Human-readable role for debugging/tests: "entry", "exit",
    #: "raise", "body", "loop-header", "handler", "finally", ...
    kind: str = "body"

    def add_successor(self, other: "Block") -> None:
        if other not in self.successors:
            self.successors.append(other)
            other.predecessors.append(self)

    @property
    def first_line(self):
        return self.statements[0].lineno if self.statements else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        succ = [b.index for b in self.successors]
        return (f"Block({self.index}, kind={self.kind!r}, "
                f"stmts={len(self.statements)}, succ={succ})")

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other


class CFG:
    """The control-flow graph of one function (or module) body."""

    def __init__(self, node):
        #: The ``ast`` node the graph was built from.
        self.node = node
        self.blocks: list = []
        self.entry = self._new_block("entry")
        self.exit = self._new_block("exit")
        self.raise_exit = self._new_block("raise")

    def _new_block(self, kind: str = "body") -> Block:
        block = Block(index=len(self.blocks), kind=kind)
        self.blocks.append(block)
        return block

    # ------------------------------------------------------------- queries

    def block_of(self, stmt) -> Block | None:
        """The block holding ``stmt`` (identity match), None if absent."""
        for block in self.blocks:
            for candidate in block.statements:
                if candidate is stmt:
                    return block
        return None

    def reachable(self) -> set:
        """Blocks reachable from the entry."""
        seen: set = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            stack.extend(block.successors)
        return seen

    def exit_blocks(self) -> list:
        """The normal-completion sink(s): ``[self.exit]``."""
        return [self.exit]


@dataclass
class _LoopFrame:
    """break/continue targets of the innermost enclosing loop."""

    header: Block
    after: Block
    #: ``len(finally_stack)`` at loop entry: break/continue run only the
    #: finally suites pushed *inside* the loop on their way out.
    finally_depth: int = 0


class _Builder:
    """Recursive-descent CFG construction.

    Each ``_visit_*`` takes the block control currently flows through
    and returns the block control flows *out* of (or ``None`` when the
    suite cannot complete normally — every route returned, raised,
    broke or continued).
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.loops: list = []  # innermost last
        #: Entry blocks of the handlers/finally suites that an exception
        #: raised "here" would reach first, innermost try last.
        self.handler_targets: list = []
        #: ``(finalbody, handler_depth)`` of every enclosing
        #: try-with-finally, innermost last: return/break/continue run
        #: these suites (duplicated, innermost first) on the way out.
        #: ``handler_depth`` restores the handler targets that were
        #: active *outside* that try while its finally copy is built.
        self.finally_stack: list = []

    # --------------------------------------------------------------- suites

    def build(self, body: list) -> None:
        current = self.cfg._new_block("body")
        self.cfg.entry.add_successor(current)
        out = self.visit_suite(body, current)
        if out is not None:
            out.add_successor(self.cfg.exit)

    def visit_suite(self, body: list, current: Block) -> Block | None:
        for stmt in body:
            if current is None:
                # Unreachable code after return/raise/break: still give
                # the statements a block so ``block_of`` finds them, but
                # leave it disconnected.
                current = self.cfg._new_block("unreachable")
            current = self.visit_statement(stmt, current)
        return current

    def visit_statement(self, stmt, current: Block) -> Block | None:
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, current)
        if isinstance(stmt, (ast.While,)):
            return self._visit_while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._visit_with(stmt, current)
        if isinstance(stmt, ast.Return):
            current.statements.append(stmt)
            self._exception_edges(current)
            out = self._run_finallys(current, depth=0)
            if out is not None:
                out.add_successor(self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            current.statements.append(stmt)
            self._raise_edges(current)
            return None
        if isinstance(stmt, ast.Break):
            current.statements.append(stmt)
            if self.loops:
                frame = self.loops[-1]
                out = self._run_finallys(current, frame.finally_depth)
                if out is not None:
                    out.add_successor(frame.after)
            return None
        if isinstance(stmt, ast.Continue):
            current.statements.append(stmt)
            if self.loops:
                frame = self.loops[-1]
                out = self._run_finallys(current, frame.finally_depth)
                if out is not None:
                    out.add_successor(frame.header)
            return None
        if isinstance(stmt, ast.Assert):
            # Success falls through; failure is an implicit raise.
            current.statements.append(stmt)
            self._raise_edges(current, fallthrough=True)
            return current
        # Nested function/class definitions are opaque statements here;
        # ``function_cfgs`` builds their own graphs separately.
        current.statements.append(stmt)
        if self.handler_targets:
            # Inside a try body every statement boundary may divert to
            # the innermost handler set: close the block so the edge is
            # position-precise.
            self._exception_edges(current)
            nxt = self.cfg._new_block("body")
            current.add_successor(nxt)
            return nxt
        return current

    # ------------------------------------------------------------ compound

    def _visit_if(self, stmt: ast.If, current: Block) -> Block | None:
        current.statements.append(stmt)  # the test expression
        self._exception_edges(current)
        after = self.cfg._new_block("join")
        then_entry = self.cfg._new_block("body")
        current.add_successor(then_entry)
        then_out = self.visit_suite(stmt.body, then_entry)
        if then_out is not None:
            then_out.add_successor(after)
        if stmt.orelse:
            else_entry = self.cfg._new_block("body")
            current.add_successor(else_entry)
            else_out = self.visit_suite(stmt.orelse, else_entry)
            if else_out is not None:
                else_out.add_successor(after)
        else:
            current.add_successor(after)
        if not after.predecessors:
            return None  # both arms left the suite
        return after

    def _visit_while(self, stmt: ast.While, current: Block) -> Block | None:
        header = self.cfg._new_block("loop-header")
        header.statements.append(stmt)  # the test expression
        current.add_successor(header)
        self._exception_edges(header)
        after = self.cfg._new_block("join")
        body_entry = self.cfg._new_block("body")
        header.add_successor(body_entry)
        self.loops.append(_LoopFrame(header=header, after=after,
                                     finally_depth=len(self.finally_stack)))
        body_out = self.visit_suite(stmt.body, body_entry)
        self.loops.pop()
        if body_out is not None:
            body_out.add_successor(header)
        is_infinite = (isinstance(stmt.test, ast.Constant)
                       and bool(stmt.test.value))
        if stmt.orelse and not is_infinite:
            else_entry = self.cfg._new_block("body")
            header.add_successor(else_entry)
            else_out = self.visit_suite(stmt.orelse, else_entry)
            if else_out is not None:
                else_out.add_successor(after)
        elif not is_infinite:
            header.add_successor(after)
        if not after.predecessors:
            return None  # while True with no break
        return after

    def _visit_for(self, stmt, current: Block) -> Block | None:
        header = self.cfg._new_block("loop-header")
        header.statements.append(stmt)  # iterator advance + target bind
        current.add_successor(header)
        self._exception_edges(header)
        after = self.cfg._new_block("join")
        body_entry = self.cfg._new_block("body")
        header.add_successor(body_entry)
        self.loops.append(_LoopFrame(header=header, after=after,
                                     finally_depth=len(self.finally_stack)))
        body_out = self.visit_suite(stmt.body, body_entry)
        self.loops.pop()
        if body_out is not None:
            body_out.add_successor(header)
        if stmt.orelse:
            else_entry = self.cfg._new_block("body")
            header.add_successor(else_entry)
            else_out = self.visit_suite(stmt.orelse, else_entry)
            if else_out is not None:
                else_out.add_successor(after)
        else:
            header.add_successor(after)
        return after

    def _visit_with(self, stmt, current: Block) -> Block | None:
        # The with statement itself (context-manager entry) heads its
        # own block so rules can key facts on it (lock acquisition).
        entry = self.cfg._new_block("with-entry")
        entry.statements.append(stmt)
        current.add_successor(entry)
        self._exception_edges(entry)
        body_entry = self.cfg._new_block("body")
        entry.add_successor(body_entry)
        body_out = self.visit_suite(stmt.body, body_entry)
        if body_out is None:
            return None
        exit_block = self.cfg._new_block("with-exit")
        body_out.add_successor(exit_block)
        return exit_block

    def _visit_try(self, stmt: ast.Try, current: Block) -> Block | None:
        after = self.cfg._new_block("join")

        handler_entries = []
        for handler in stmt.handlers:
            entry = self.cfg._new_block("handler")
            entry.statements.append(handler)  # the except clause itself
            handler_entries.append(entry)

        def run_finally(block: Block, kind: str) -> Block | None:
            """Route ``block`` through a copy of the finally suite."""
            if not stmt.finalbody:
                return block
            entry = self.cfg._new_block(f"finally-{kind}")
            block.add_successor(entry)
            return self.visit_suite(stmt.finalbody, entry)

        # While the body, else and handler suites are visited, the
        # finally is pending: return/break/continue inside them must
        # route through it (``_run_finallys``).
        handler_depth = len(self.handler_targets)
        if stmt.finalbody:
            self.finally_stack.append((stmt.finalbody, handler_depth))

        # --- try body: exceptions may divert to handlers (or, with no
        # handlers, to the finally-then-reraise route).
        body_entry = self.cfg._new_block("try-body")
        current.add_successor(body_entry)
        if handler_entries:
            self.handler_targets.append(handler_entries)
        else:
            # No handlers: an exception runs the finally then re-raises.
            reraise = self.cfg._new_block("finally-reraise-entry")
            self.handler_targets.append([reraise])
        body_out = self.visit_suite(stmt.body, body_entry)
        diverted = self.handler_targets.pop()

        # --- else suite runs only when the body completed normally.
        if body_out is not None and stmt.orelse:
            body_out = self.visit_suite(stmt.orelse, body_out)

        # --- handlers: body flows to finally/join; an uncaught raise
        # inside a handler behaves like any other raise.
        handler_outs = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            # A body that could not raise leaves the handler entry
            # disconnected but still parsed (block_of finds it).
            handler_outs.append(self.visit_suite(handler.body, entry))

        if stmt.finalbody:
            self.finally_stack.pop()

        if not handler_entries and stmt.finalbody:
            # Wire the exceptional route through the finally suite and
            # on to the raise exit.
            reraise_entry = diverted[0]
            if reraise_entry.predecessors:
                out = self.visit_suite(stmt.finalbody, reraise_entry)
                if out is not None:
                    out.add_successor(self.cfg.raise_exit)
            # else: the try body had no statements that could raise

        normal_out = run_finally(body_out, "normal") if body_out is not None \
            else None
        if normal_out is not None:
            normal_out.add_successor(after)
        for handler_out in handler_outs:
            if handler_out is not None:
                handler_out = run_finally(handler_out, "handler")
            if handler_out is not None:
                handler_out.add_successor(after)

        if not after.predecessors:
            return None
        return after

    def _run_finallys(self, block: Block, depth: int) -> Block | None:
        """Duplicate the pending finally suites above ``depth``
        (innermost first) onto a route that leaves through ``block`` —
        how return/break/continue honor ``try/finally`` on the way out.
        Returns the last copy's out-block (None if a finally itself
        cannot complete normally)."""
        out = block
        saved_handlers = self.handler_targets
        saved_finally = self.finally_stack
        for i in range(len(saved_finally) - 1, depth - 1, -1):
            finalbody, handler_depth = saved_finally[i]
            entry = self.cfg._new_block("finally-leave")
            out.add_successor(entry)
            # The finally runs outside its try: restore the handler
            # targets and pending finallys that surround that try.
            self.handler_targets = saved_handlers[:handler_depth]
            self.finally_stack = saved_finally[:i]
            out = self.visit_suite(finalbody, entry)
            if out is None:
                break
        self.handler_targets = saved_handlers
        self.finally_stack = saved_finally
        return out

    # ------------------------------------------------------------ edges

    def _exception_edges(self, block: Block) -> None:
        """Edges for "a statement here may raise": to the innermost
        enclosing handlers only (implicit raises are otherwise
        unmodeled; see the module doc)."""
        if self.handler_targets:
            for target in self.handler_targets[-1]:
                block.add_successor(target)

    def _raise_edges(self, block: Block, fallthrough: bool = False) -> None:
        """Edges for an explicit ``raise`` (or failing ``assert``)."""
        if self.handler_targets:
            for target in self.handler_targets[-1]:
                block.add_successor(target)
        else:
            block.add_successor(self.cfg.raise_exit)
        if not fallthrough:
            return


def build_cfg(node) -> CFG:
    """The CFG of one function def (sync or async) or module body."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Module)):
        raise TypeError(f"cannot build a CFG from {type(node).__name__}")
    cfg = CFG(node)
    _Builder(cfg).build(list(node.body))
    return cfg


def function_cfgs(tree):
    """Yield ``(func_node, CFG)`` for every function in ``tree``
    (methods included; nested functions get their own graphs)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, build_cfg(node)
