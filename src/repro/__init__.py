"""Reproduction of *Bellwether Analysis: Predicting Global Aggregates from
Local Regions* (Chen, Ramakrishnan, Shavlik, Tamma - VLDB 2006).

Quick tour
----------
>>> from repro.datasets import make_mailorder
>>> from repro.core import BasicBellwetherSearch, build_store
>>> ds = make_mailorder(n_items=100)
>>> store, costs, coverage = build_store(ds.task)
>>> result = BasicBellwetherSearch(ds.task, store, costs=costs).run(budget=60.0)
>>> result.bellwether.region       # doctest: +SKIP
Region([1-7, MD])

Packages
--------
* :mod:`repro.table` - columnar relational engine (joins, group-by, CUBE,
  star schemas).
* :mod:`repro.dimensions` - hierarchies, interval dimensions, regions,
  costs, item-hierarchy lattices.
* :mod:`repro.ml` - WLS/OLS linear regression on sufficient statistics
  (Theorem 1), error estimators with confidence intervals.
* :mod:`repro.storage` - in-memory / disk-resident training-data stores with
  I/O accounting.
* :mod:`repro.core` - the paper's contribution: basic bellwether search,
  bellwether trees, bellwether cubes, item-centric prediction.
* :mod:`repro.datasets` - synthetic substitutes for the paper's datasets.
* :mod:`repro.experiments` - drivers regenerating every evaluation figure.
* :mod:`repro.analysis` - AST-based invariant linter for this repo's own
  contracts (``python -m repro.analysis``).

Every exception raised by ``repro`` code roots at :class:`ReproError`
(see :mod:`repro.exceptions`; enforced by lint rule RPR006).
"""

from .exceptions import ConfigError, ReproError, VerificationError

from .core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTask,
    BellwetherTreeBuilder,
    Criterion,
    DirectTask,
    build_store,
)

__version__ = "1.0.0"

__all__ = [
    "BasicBellwetherSearch",
    "BellwetherCubeBuilder",
    "BellwetherTask",
    "BellwetherTreeBuilder",
    "ConfigError",
    "Criterion",
    "DirectTask",
    "ReproError",
    "VerificationError",
    "__version__",
    "build_store",
]
