"""The repo's benchmark: six named workloads, end-to-end and per-layer metrics.

See ``bench/README.md`` for what each workload and metric means and
``BENCHMARK.json`` at the repo root for the contract the numbers are
gated against.  Entry points: ``python bench/run.py`` and
``python bench/compare.py``.
"""
