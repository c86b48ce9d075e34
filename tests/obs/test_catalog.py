"""The metric-name catalog: uniqueness, dynamic families, doc drift."""

import re
from pathlib import Path

from repro.obs import catalog

ROOT = Path(__file__).resolve().parents[2]

#: Dotted tokens in OBSERVABILITY.md that are code paths, not metrics.
_NON_METRIC_PREFIXES = (
    "repro.", "tests.", "docs.", "src.", "np.", "metrics.",
    "multiprocessing.", "registry.", "snapshot.", "man.",
)
_CAMEL_RE = re.compile(r"(^|\.)[A-Z][a-z]")
_TOKEN_RE = re.compile(r"^[a-z][a-zA-Z0-9_]*(\.[a-zA-Z0-9_]+)+\.?$")


def _doc_tokens(text: str):
    """Dotted metric-looking tokens from inline code spans, with line
    numbers (fenced code blocks are skipped — they hold JSON examples
    and shell commands, not the prose contract)."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in re.findall(r"`([^`]+)`", line):
            token = span.strip().rstrip(".")
            if not _TOKEN_RE.match(token + ".") or "/" in token:
                continue
            if token.startswith(_NON_METRIC_PREFIXES):
                continue
            if _CAMEL_RE.search(token):  # CamelCase component: a class
                continue
            if token.endswith((".py", ".md", ".json", ".npz", ".npy")):
                continue
            yield token, lineno


def doc_drift(doc_text: str) -> list:
    """``[(token, lineno), ...]`` for metric names the doc mentions and
    the catalog lacks — empty means the doc and the code agree."""
    universe = {e.name for e in catalog.CATALOG}
    universe.update(x for d in catalog.DYNAMIC for x in d.examples)
    prefixes = tuple(d.prefix for d in catalog.DYNAMIC)

    def known(token):
        return (
            token in universe
            # a scoped mention (`ethernet.frames`): some name ends with it
            or any(n.endswith("." + token) for n in universe)
            # a family mention (`serve.cache`): some name lives under it
            or any(n.startswith(token + ".") for n in universe)
            or token.startswith(prefixes)
        )

    return [(t, n) for t, n in _doc_tokens(doc_text) if not known(t)]


class TestCatalog:
    def test_observability_doc_has_no_drift(self):
        doc = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        assert doc_drift(doc) == []

    def test_doc_drift_flags_an_undeclared_name(self):
        assert doc_drift("see `serve.cache.warmth` and `serve.probes`") \
            == [("serve.cache.warmth", 1)]

    def test_catalog_names_are_unique(self):
        declared = [entry.name for entry in catalog.CATALOG]
        assert len(declared) == len(set(declared))
        kinds = {entry.kind for entry in catalog.CATALOG}
        assert kinds == {"counter", "gauge", "histogram", "timer"}

    def test_dynamic_families_are_dotted_prefixes(self):
        for entry in catalog.DYNAMIC:
            assert entry.prefix.endswith(".")
            for example in entry.examples:
                assert example.startswith(entry.prefix)
        prefixes = [entry.prefix for entry in catalog.DYNAMIC]
        assert len(prefixes) == len(set(prefixes))

    def test_debug_counter_is_declared(self):
        # The shm race detector's one observable counter must stay
        # cataloged, or the registry would reject the guarded inc call.
        assert "multiproc.shm_claims_checked" in {
            entry.name for entry in catalog.CATALOG
        }
