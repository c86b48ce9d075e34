"""Dataflow analysis over the staticcheck CFG.

:func:`must_held_at` is a *must* analysis over an abstract set of
"facts" (``lock:self._lock`` is held).  Join is set intersection: a
fact survives a join only when **every** incoming path established it,
which is exactly the "on all CFG paths" obligation of the
lock-discipline rule (RA007).

It runs the textbook worklist algorithm (:func:`solve_forward`) to a
fixpoint.  Transfer functions are per *statement*, supplied by the
rule as gen/kill callbacks — the framework owns iteration order and
convergence, the rule owns semantics.  Loops converge because the
lattice is finite (sets of declared facts) and the transfer functions
are monotone.
"""

from __future__ import annotations

import ast

from .cfg import CFG, Block

__all__ = ["solve_forward", "must_held_at"]

#: Sentinel lattice value for "block not yet visited" in must analyses
#: (the top element: intersecting with it is the identity).
TOP = None


def solve_forward(cfg: CFG, transfer, join, initial):
    """Generic forward worklist solver.

    ``transfer(block, state) -> state`` maps a block's input state to
    its output state (must not mutate its argument); ``join(states) ->
    state`` merges predecessor outputs (called with a non-empty list);
    ``initial`` is the entry block's input state.  Returns
    ``(block_in, block_out)`` dicts keyed by block.

    Blocks with no visited predecessor yet contribute :data:`TOP`
    (skipped by the caller-supplied join via filtering here), so a
    must-analysis does not leak "nothing is held" from not-yet-reached
    back edges into the first iteration.
    """
    block_in: dict = {}
    block_out: dict = {}
    worklist = [cfg.entry]
    block_in[cfg.entry] = initial
    while worklist:
        block = worklist.pop(0)
        if block is cfg.entry:
            state_in = initial
        else:
            preds = [block_out[p] for p in block.predecessors
                     if p in block_out]
            if not preds:
                continue  # unreachable (or not yet reached)
            state_in = join(preds)
        previous_in = block_in.get(block, TOP)
        if previous_in is not TOP and state_in == previous_in \
                and block in block_out:
            continue
        block_in[block] = state_in
        state_out = transfer(block, state_in)
        if block_out.get(block) != state_out or block not in block_out:
            block_out[block] = state_out
            for successor in block.successors:
                if successor not in worklist:
                    worklist.append(successor)
    return block_in, block_out


# --------------------------------------------------------- held facts


def must_held_at(cfg: CFG, gen_kill, initial=frozenset()):
    """Per-statement *must*-held facts (the RA007 engine).

    ``gen_kill(stmt) -> (gen, kill, scoped)`` describes one statement's
    effect: ``gen``/``kill`` are iterables of fact strings applied in
    kill-then-gen order; ``scoped`` is an iterable of facts established
    only for the statement's lexical body (a ``with lock:`` holds the
    lock for its suite and releases it after — the CFG's with-exit
    block is where the scope ends).

    Returns ``facts_at``: ``{statement: frozenset(facts)}`` giving the
    facts guaranteed held *when that statement executes*, on **every**
    path from the entry.  Join is intersection, so one unlocked route
    is enough to lose a fact — exactly the obligation "this attribute
    is only touched with the lock held on all paths".  ``initial``
    seeds the entry state (a ``# holds-lock:`` method contract).
    """
    # Pre-compute scoped facts: a with statement contributes its facts
    # to every statement lexically inside its body.
    scope_facts: dict = {}  # statement (by id) -> frozenset of extras

    def note_scope(with_stmt, facts):
        for inner in ast.walk(with_stmt):
            if inner is with_stmt:
                continue
            if isinstance(inner, ast.stmt):
                scope_facts[inner] = scope_facts.get(
                    inner, frozenset()) | facts

    for block in cfg.blocks:
        for stmt in block.statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                _, _, scoped = gen_kill(stmt)
                scoped = frozenset(scoped)
                if scoped:
                    note_scope(stmt, scoped)

    def transfer(block: Block, state: frozenset) -> frozenset:
        for stmt in block.statements:
            gen, kill, _ = gen_kill(stmt)
            state = (state - frozenset(kill)) | frozenset(gen)
        return state

    def join(states: list) -> frozenset:
        merged = states[0]
        for state in states[1:]:
            merged = merged & state
        return merged

    block_in, _ = solve_forward(
        cfg, transfer, join, initial=frozenset(initial)
    )

    facts_at: dict = {}
    for block in cfg.blocks:
        if block not in block_in:
            continue  # unreachable
        state = block_in[block]
        for stmt in block.statements:
            facts_at[stmt] = state | scope_facts.get(stmt, frozenset())
            gen, kill, _ = gen_kill(stmt)
            state = (state - frozenset(kill)) | frozenset(gen)
    return facts_at
