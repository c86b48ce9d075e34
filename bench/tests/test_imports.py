"""The benchmark touches the program only through the symbols its README
lists — so a later simplification PR knows exactly what it must keep."""

import ast
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def imported_symbols() -> set:
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "repro" or node.module.startswith("repro.")):
                assert node.level == 0
                for alias in node.names:
                    assert alias.name != "*", f"{path.name}: star import"
                    found.add(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("repro"), (
                        f"{path.name}: 'import {alias.name}' hides which "
                        "symbols are used; import them by name")
    return found


def documented_symbols() -> set:
    text = (BENCH / "README.md").read_text()
    section = text.split("## Benchmark API surface", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(repro(?:\.\w+)+)`", section))


def test_bench_imports_exactly_the_documented_symbols():
    used, documented = imported_symbols(), documented_symbols()
    assert used - documented == set(), "undocumented repro symbols in bench/"
    assert documented - used == set(), "README lists symbols bench/ no longer uses"


def test_nothing_in_bench_reaches_into_private_names():
    for symbol in imported_symbols():
        assert not symbol.rsplit(".", 1)[1].startswith("_"), symbol
