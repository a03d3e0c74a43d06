"""``perfbench``: the repository's source -> report benchmark.

One command (``python3 -m perfbench``) generates every input from a
seed, runs five workloads through the default engine's real one-call
paths (``execute_job``, ``PassManager.run``, ``Farm.run_batch``), checks
every result against an oracle, and prints every metric by name with its
unit.  ``BENCHMARK.json`` at the repository root declares the metrics and
workloads; ``perfbench/README.md`` explains why each was chosen.

Nothing here is imported by ``src/``; the benchmark measures the program
from outside, through public functions only.
"""
