"""The benchmark of record: build, hot/uniform serving and live-mixed workloads.

``python -m bench run`` drives ``python -m repro`` subprocesses — the
system exactly as a user runs it — from one single-threaded load
generator, checks that what came back is correct, and prints named
end-to-end metrics (``--trace`` prints the per-layer ones instead).
``BENCHMARK.json`` at the repository root names the workloads, the
metrics, their units and the bound by which each end-to-end metric may
get worse; see ``bench/README.md`` for why each exists.

Stdlib only; nothing under ``src/`` or ``benchmarks/`` is touched.
"""
