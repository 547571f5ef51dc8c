"""End-to-end benchmark of the analysis engine through its public API.

Four workloads (``point-m512``, ``point-m2048``, ``ber-curve``,
``scenarios``), each run in a fresh process, with end-to-end metrics
from untraced runs and a per-layer breakdown from a separate traced run.
See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
