"""Script entry point: ``python3 benchmarks/e2e/run.py ...`` from the checkout root.

Puts the checkout root (for ``benchmarks.e2e``) and ``src`` (for ``repro``,
which is not installed) on ``sys.path``, then hands over to :mod:`cli`.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
