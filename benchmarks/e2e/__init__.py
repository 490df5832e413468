"""End-to-end benchmark: four workloads, whole-window statistics only.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
(or ``python -m benchmarks.e2e`` with the same arguments) prints one result
object as the last line of stdout.  ``BENCHMARK.json`` at the repo root
declares every name this package may print; ``README.md`` here explains
what each number means and why none of them is a one-shot.
"""
