"""The invariant rule set, one module per contract.

==========  ====================================================== ==========
Rule        Contract                                               Guards
==========  ====================================================== ==========
``RPR001``  block access routes through scan-accounting APIs       Lemma 1/2
``RPR002``  metric names come from :mod:`repro.obs.catalog`        obs/bench
``RPR003``  random draws use explicitly seeded generators          conformance
``RPR004``  executor-submitted work is fork-safe                   exec layer
``RPR005``  suffstats are values outside :mod:`repro.ml`           Theorem 1
``RPR006``  no swallowed catch-alls; raise ``repro`` types         API surface
``RPR007``  serve instrument globals touched only under their lock serve §9
``RPR008``  lock pairs acquired in one consistent order            serve §9
``RPR010``  storage writes are atomic (tmp + ``os.replace``)       durability
==========  ====================================================== ==========

RPR007–008 share the lock vocabulary of :mod:`repro.analysis.guards`
(RPR008 also its one-hop :mod:`repro.analysis.callgraph`); their dynamic
twin is the opt-in runtime checker (:mod:`repro.analysis.runtime`).
There is no RPR009: it policed the serve write lock, which no longer
exists.
"""

from __future__ import annotations

from ..engine import AnalysisError, Rule
from .atomic_writes import AtomicWritesRule
from .counter_catalog import CounterCatalogRule
from .exception_discipline import ExceptionDisciplineRule
from .fork_safety import ForkSafetyRule
from .guarded_fields import GuardedFieldsRule
from .lock_order import LockOrderRule
from .scan_accounting import ScanAccountingRule
from .seed_discipline import SeedDisciplineRule
from .suffstats_purity import SuffStatsPurityRule

__all__ = [
    "ALL_RULES",
    "AtomicWritesRule",
    "CounterCatalogRule",
    "ExceptionDisciplineRule",
    "ForkSafetyRule",
    "GuardedFieldsRule",
    "LockOrderRule",
    "ScanAccountingRule",
    "SeedDisciplineRule",
    "SuffStatsPurityRule",
    "get_rules",
]

#: Every registered rule, in id order.
ALL_RULES: tuple[Rule, ...] = (
    ScanAccountingRule(),
    CounterCatalogRule(),
    SeedDisciplineRule(),
    ForkSafetyRule(),
    SuffStatsPurityRule(),
    ExceptionDisciplineRule(),
    GuardedFieldsRule(),
    LockOrderRule(),
    AtomicWritesRule(),
)


def get_rules(rule_ids: list[str] | None = None) -> list[Rule]:
    """The selected rules (default: all), validating unknown ids loudly."""
    if not rule_ids:
        return list(ALL_RULES)
    by_id = {rule.rule_id: rule for rule in ALL_RULES}
    unknown = [rid for rid in rule_ids if rid not in by_id]
    if unknown:
        raise AnalysisError(
            f"unknown rule ids {unknown}; have {sorted(by_id)}"
        )
    return [by_id[rid] for rid in rule_ids]
