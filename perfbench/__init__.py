"""End-to-end and per-layer benchmark of the 3DESS shape-search system.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md``.
"""
