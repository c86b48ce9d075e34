"""Worklist-solver behavior: joins, loop convergence, scoped facts.

The gen/kill callbacks here use a deliberately tiny vocabulary —
``acquire()`` / ``release()`` calls on a bare name generate and kill a
``lock`` fact; ``with lock:`` scopes it — so each test isolates one
solver property rather than re-testing the production rules.
"""

import ast

from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.dataflow import must_held_at


def cfg_of(source):
    tree = ast.parse(source)
    func = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef))
    return func, build_cfg(func)


def stmt_at(func, lineno):
    for node in ast.walk(func):
        if isinstance(node, ast.stmt) and node.lineno == lineno:
            return node
    raise AssertionError(f"no statement at line {lineno}")


def own_exprs(stmt):
    """The expressions ``stmt`` itself evaluates — compound statements
    contribute only their headers; their suites are separate CFG
    statements with their own gen/kill."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.Try):
        return []
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def lock_gen_kill(stmt):
    """gen/kill over the fact ``"lock"``: ``acquire()`` / ``release()``
    expression calls, ``with lock:`` scoping."""
    if isinstance(stmt, ast.With):
        for item in stmt.items:
            if isinstance(item.context_expr, ast.Name) \
                    and item.context_expr.id == "lock":
                return (), (), ("lock",)
        return (), (), ()
    gen, kill = [], []
    for expr in own_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name):
                if node.func.id == "acquire":
                    gen.append("lock")
                elif node.func.id == "release":
                    kill.append("lock")
    return gen, kill, ()


class TestMustHeldAt:
    def test_acquire_release_window(self):
        func, cfg = cfg_of(
            "def f():\n"
            "    acquire()\n"
            "    touch()\n"
            "    release()\n"
            "    touch_again()\n"
        )
        facts = must_held_at(cfg, lock_gen_kill)
        assert "lock" in facts[stmt_at(func, 3)]
        assert "lock" not in facts[stmt_at(func, 5)]
        # The acquire statement itself runs before the fact exists.
        assert "lock" not in facts[stmt_at(func, 2)]

    def test_one_unlocked_path_loses_the_fact(self):
        func, cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        acquire()\n"
            "    touch()\n"
        )
        facts = must_held_at(cfg, lock_gen_kill)
        # Intersection join: the skip path never acquired.
        assert "lock" not in facts[stmt_at(func, 4)]

    def test_both_paths_acquiring_keeps_the_fact(self):
        func, cfg = cfg_of(
            "def f(x):\n"
            "    if x:\n"
            "        acquire()\n"
            "    else:\n"
            "        acquire()\n"
            "    touch()\n"
        )
        facts = must_held_at(cfg, lock_gen_kill)
        assert "lock" in facts[stmt_at(func, 6)]

    def test_with_scopes_the_fact_lexically(self):
        func, cfg = cfg_of(
            "def f():\n"
            "    with lock:\n"
            "        touch()\n"
            "    after()\n"
        )
        facts = must_held_at(cfg, lock_gen_kill)
        assert "lock" in facts[stmt_at(func, 3)]
        assert "lock" not in facts[stmt_at(func, 4)]

    def test_loop_converges_and_drops_fact_released_inside(self):
        func, cfg = cfg_of(
            "def f(xs):\n"
            "    acquire()\n"
            "    for x in xs:\n"
            "        release()\n"
            "    touch()\n"
        )
        facts = must_held_at(cfg, lock_gen_kill)
        # After >= 1 iteration the lock is gone; the back edge must
        # carry that state into the header's join (fixpoint, not the
        # first-pass state where the lock was still held).
        assert "lock" not in facts[stmt_at(func, 5)]

    def test_loop_that_reacquires_keeps_fact_inside(self):
        func, cfg = cfg_of(
            "def f(xs):\n"
            "    acquire()\n"
            "    for x in xs:\n"
            "        touch()\n"
            "        release()\n"
            "        acquire()\n"
            "    after()\n"
        )
        facts = must_held_at(cfg, lock_gen_kill)
        assert "lock" in facts[stmt_at(func, 4)]
        assert "lock" in facts[stmt_at(func, 7)]

    def test_initial_seed_survives_to_entry_statements(self):
        func, cfg = cfg_of("def f():\n    touch()\n")
        facts = must_held_at(cfg, lock_gen_kill,
                             initial=frozenset({"lock"}))
        assert "lock" in facts[stmt_at(func, 2)]
