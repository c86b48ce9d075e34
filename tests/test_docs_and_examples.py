"""Meta-tests: documentation coverage and example freshness."""

import ast
import contextlib
import importlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main

SRC = Path(repro.__file__).parent
ROOT = Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"
GOLDENS = ROOT / "benchmarks" / "results"


def public_modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if any(part.startswith("_") for part in rel.parts):
            continue
        yield path


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in public_modules():
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                missing.append(str(path))
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_class_and_function_documented(self):
        missing = []
        for path in public_modules():
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if node.name.startswith("_"):
                        continue
                    if ast.get_docstring(node) is None:
                        missing.append(f"{path.name}:{node.name}")
        assert not missing, f"undocumented public items: {missing}"

    def test_package_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_cross_references_resolve(self):
        """Every ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` target
        a docstring names by its ``repro.`` path imports."""
        role = re.compile(r":(?:mod|class|func|meth):`~?(repro\.[\w.]+)`")
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef,
                 ast.AsyncFunctionDef)
        targets = set()
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, kinds):
                    targets.update(role.findall(ast.get_docstring(node) or ""))
        assert targets
        unresolved = sorted(t for t in targets if not _resolves(t))
        assert not unresolved, f"docstring targets that do not import: {unresolved}"


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then look up the
    rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


class TestExamples:
    def test_every_example_has_module_docstring_and_main(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
            names = {
                n.name
                for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            assert "main" in names, f"{path.name} lacks main()"

    @pytest.mark.parametrize(
        "example", ["other_games.py", "protocol_trace.py", "mpi_style.py"]
    )
    def test_fast_examples_run_clean(self, example):
        """The quick examples must execute end to end (the CI exhibits
        job runs all ten, the heavyweight sweeps included)."""
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / example)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip()


class TestDocsQuoteGoldens:
    """README and EXPERIMENTS.md quote the paper's exhibits; these checks
    hold every quoted figure to the committed text in
    ``benchmarks/results/`` (which ``pytest benchmarks`` pins byte for
    byte), so a change that moves an exhibit moves its quotes too."""

    def test_readme_key_result_is_copied_from_its_golden(self):
        readme = (ROOT / "README.md").read_text()
        match = re.search(r"^### Key result \((benchmarks/results/\S+\.txt)\)$",
                          readme, re.MULTILINE)
        assert match, "README has no 'Key result (<golden>)' heading"
        golden = (ROOT / match.group(1)).read_text().splitlines()
        block = readme[match.end():].split("```", 2)[1].splitlines()
        assert any(block)
        stray = [line for line in block if line and line not in golden]
        assert not stray, f"Key result lines not in {match.group(1)}: {stray}"

    def test_readme_model_block_is_the_command_output(self):
        readme = (ROOT / "README.md").read_text()
        match = re.search(r"^\$ python -m repro (model.*?)\n(.*?)^```",
                          readme, re.MULTILINE | re.DOTALL)
        assert match, "README has no `$ python -m repro model` block"
        argv = shlex.split(match.group(1))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(argv) == 0
        printed = out.getvalue().splitlines()
        stray = [line for line in match.group(2).splitlines()
                 if line and line not in printed]
        assert not stray, f"README lines not printed by `repro {match.group(1)}`: {stray}"

    def test_experiments_headline_bold_figures_are_in_goldens(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        table = text.split("## Headline claims", 1)[1].split("\n## ", 1)[0]
        figures = re.findall(r"\*\*(.+?)\*\*", table)
        assert len(figures) >= 7
        goldens = [path.read_text() for path in GOLDENS.glob("*.txt")]
        missing = [f for f in figures if not any(f in g for g in goldens)]
        assert not missing, f"headline figures in no golden: {missing}"

    def test_readme_exhibit_table_links_every_golden(self):
        readme = (ROOT / "README.md").read_text()
        linked = set(re.findall(r"\]\((benchmarks/results/[\w.]+\.txt)\)", readme))
        on_disk = {f"benchmarks/results/{p.name}" for p in GOLDENS.glob("*.txt")}
        assert linked == on_disk
