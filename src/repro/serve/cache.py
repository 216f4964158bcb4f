"""Plan and result caches for the serving layer.

Both caches key on a **plan fingerprint**: every plan node is a frozen
dataclass, so ``repr(plan)`` is a canonical structural rendering and its
SHA-256 digest identifies the plan shape exactly (two requests with the
same logical plan — the common case in a dashboard workload — share a
fingerprint even when submitted by different tenants).

* :class:`PlanCache` memoises the optimizer's output, so repeated shapes
  skip re-optimization and pay only a lookup charge.
* :class:`ResultCache` memoises whole result tables.  Its key includes
  the backend name and the *version* of every base table the plan scans,
  its subqueries' tables included, so a data change
  (``QueryServer.update_table``) naturally misses — and
  :meth:`ResultCache.invalidate_table` eagerly drops stale entries so the
  cache never pins dead tables.

Both are LRU-bounded and count hits/misses for the serving metrics.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.predicate import And, Not, Or, Predicate
from repro.query.plan import (
    Filter,
    InSubquery,
    PlanNode,
    ScalarCompare,
    Scan,
    walk,
)
from repro.relational.table import Table


def plan_fingerprint(plan: PlanNode) -> str:
    """Stable structural digest of a logical plan (hex, 16 chars)."""
    return hashlib.sha256(repr(plan).encode("utf-8")).hexdigest()[:16]


def scanned_tables(plan: PlanNode) -> Tuple[str, ...]:
    """Sorted, deduplicated base tables a plan reads, the tables its IN
    and scalar subqueries read included."""
    tables = set()
    plans = [plan]
    while plans:
        for node in walk(plans.pop()):
            if isinstance(node, Scan):
                tables.add(node.table)
            elif isinstance(node, Filter):
                plans.extend(_subplans(node.predicate))
    return tuple(sorted(tables))


def _subplans(predicate: Predicate) -> List[PlanNode]:
    """The inner plans of the subqueries in a predicate tree."""
    if isinstance(predicate, (InSubquery, ScalarCompare)):
        return [predicate.subplan]
    if isinstance(predicate, (And, Or)):
        return [plan for part in predicate.parts for plan in _subplans(part)]
    if isinstance(predicate, Not):
        return _subplans(predicate.part)
    return []


class PlanCache:
    """LRU memo of optimized plans keyed by plan fingerprint."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, PlanNode]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> Optional[PlanNode]:
        plan = self._entries.get(fingerprint)
        if plan is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return plan

    def put(self, fingerprint: str, plan: PlanNode) -> None:
        self._entries[fingerprint] = plan
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Result-cache key: (plan fingerprint, backend name, ((table, version), ...)).
ResultKey = Tuple[str, str, Tuple[Tuple[str, int], ...]]


def result_key(
    fingerprint: str, backend: str, versions: Dict[str, int],
    tables: Tuple[str, ...],
) -> ResultKey:
    """Build a result-cache key from the tables a plan scans and the
    server's current table-version map (unknown tables are version 0)."""
    return (
        fingerprint,
        backend,
        tuple((table, versions.get(table, 0)) for table in tables),
    )


class ResultCache:
    """LRU cache of materialised result tables.

    Versioned keys make staleness impossible: bumping a table's version
    changes every key that mentions it, so lookups after a data change
    miss even before :meth:`invalidate_table` sweeps the dead entries.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(
                f"result cache capacity must be positive: {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: "OrderedDict[ResultKey, Table]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ResultKey) -> Optional[Table]:
        table = self._entries.get(key)
        if table is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return table

    def put(self, key: ResultKey, table: Table) -> None:
        self._entries[key] = table
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate_table(self, table: str) -> int:
        """Drop every entry whose key mentions ``table``; returns count."""
        stale = [
            key for key in self._entries
            if any(name == table for name, _version in key[2])
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
