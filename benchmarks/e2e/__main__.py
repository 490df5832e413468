"""``python -m benchmarks.e2e ...`` (needs ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
