"""Eligibility analysis for partition-parallel plan execution.

The distributed executor runs one copy of (almost) the whole plan per
device, against a per-device catalog in which exactly one base table —
the *sharded* table — is replaced by that device's shard while every
other base table is replicated.  The plan splits at its merge point
exactly as chunked scans do (:func:`~repro.query.chunked.split_plan`):
each device runs the partial plan, and the host merges the partials
with :func:`~repro.query.chunked.merge_partials`.  A plan the split
rejects falls back with the split's reason.  Beyond the split, sharding
is correct precisely when every operator between the sharded scan and
the merge point distributes over row-unions of the sharded table:

* ``Filter``/``Project`` are row-local — always distribute.
* ``Join`` with a replicated other side matches each sharded row
  independently — distributes.
* A ``GroupBy`` strictly *below* the merge point (e.g. Q4's decorrelated
  EXISTS) is only complete per-device when all rows of each group
  colocate — the partitioning must be hash or range on one of its keys.

Plans without a topmost aggregation are rejected outright: their result
row *order* would depend on the partitioning, so they could never match
the serial executor bit-for-bit.  The executor falls back to
single-device execution for every ineligible plan — distribution is an
optimisation, never a semantics change.

The analysis also works out whether the plan's top join admits a
*shuffle* exchange (hash-partition the build side instead of replicating
it): the build side must expose its join key as a stored column of
exactly one base table, and the fact side's stored partitioning — or a
re-shard onto the join key — must colocate every inner group-by.  The
broadcast-vs-shuffle choice itself is made by the cost model in
:mod:`repro.distributed.exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.predicate import And, Not, Or, Predicate
from repro.query.chunked import PlanSplit, split_plan
from repro.query.plan import (
    Filter,
    GroupBy,
    InSubquery,
    Join,
    PlanNode,
    Project,
    Scan,
    ScalarCompare,
    SemiJoin,
    walk,
)
from repro.relational.table import Table
from repro.distributed.partition import PartitionSpec


def _contains_scan(node: PlanNode, table: str) -> bool:
    return any(
        isinstance(n, Scan) and n.table == table for n in walk(node)
    )


def _has_subquery(predicate: Predicate) -> bool:
    """True when a filter predicate still carries an unresolved subquery."""
    if isinstance(predicate, (InSubquery, ScalarCompare)):
        return True
    if isinstance(predicate, (And, Or)):
        return any(_has_subquery(part) for part in predicate.parts)
    if isinstance(predicate, Not):
        return _has_subquery(predicate.part)
    return False


def _scan_tables(node: PlanNode) -> List[str]:
    return [n.table for n in walk(node) if isinstance(n, Scan)]


@dataclass(frozen=True)
class JoinExchangePlan:
    """Shuffle-eligibility facts about the plan's top join."""

    #: The sharded side's join column (a stored column of the sharded
    #: table) — shuffle re-partitions the fact side onto ``hash:<this>``.
    fact_key: str
    #: The build-side base table that is hash-partitioned instead of
    #: replicated in shuffle mode, and its join column.
    build_table: str
    build_key: str


@dataclass(frozen=True)
class DistributedDecision:
    """Outcome of :func:`analyze` for one (plan, partitioning) pair."""

    eligible: bool
    #: Human-readable fallback reason when not eligible.
    reason: str
    sharded_table: Optional[str] = None
    spec: Optional[PartitionSpec] = None
    #: The plan cut at its merge point: the per-device partial plan and
    #: how the host merges the partials.
    split: Optional[PlanSplit] = None
    #: Base tables replicated to every device (referenced, not sharded).
    replicated: Tuple[str, ...] = ()
    #: Whether the *stored* partitioning colocates every inner group-by
    #: (gates broadcast mode).
    broadcast_sound: bool = True
    #: Shuffle facts, or None with ``shuffle_reason`` saying why not.
    join_exchange: Optional[JoinExchangePlan] = None
    shuffle_reason: str = ""
    #: Key sets of group-bys below the merge point over the sharded table
    #: (re-checked against the effective partitioning in shuffle mode).
    inner_group_keys: Tuple[FrozenSet[str], ...] = field(default=())


def _ineligible(reason: str) -> DistributedDecision:
    return DistributedDecision(eligible=False, reason=reason)


def colocated(
    spec: PartitionSpec, key_sets: Tuple[FrozenSet[str], ...]
) -> bool:
    """True when ``spec`` sends every group of every key set to one
    shard: hash/range partitioning on a column of each set."""
    return all(
        spec.colocates_equal_keys and spec.column in keys
        for keys in key_sets
    )


def analyze(
    plan: PlanNode,
    catalog: Dict[str, Table],
    spec: PartitionSpec,
) -> DistributedDecision:
    """Decide whether (and how) ``plan`` can run partition-parallel."""
    split = split_plan(plan)
    if split.reason:
        return _ineligible(split.reason)
    inner = split.group_by
    if inner is None:
        return _ineligible(
            "no aggregation at the top: result row order would depend on "
            "the partitioning"
        )

    for node in walk(inner):
        if isinstance(node, Filter) and _has_subquery(node.predicate):
            # Per-device resolution would run the subquery against a
            # *shard* of its tables, changing the membership set.
            return _ineligible(
                "plan carries an unresolved subquery predicate; it must "
                "be resolved against the whole catalog first"
            )

    tables = _scan_tables(inner)
    missing = sorted({t for t in tables if t not in catalog})
    if missing:
        return _ineligible(f"unknown tables: {', '.join(missing)}")

    if spec.column is not None:
        owners = sorted(
            {t for t in set(tables) if spec.column in catalog[t]}
        )
        if not owners:
            return _ineligible(
                f"partition column {spec.column!r} is not a column of any "
                "scanned table"
            )
        if len(owners) > 1:
            return _ineligible(
                f"partition column {spec.column!r} is ambiguous across "
                f"tables: {', '.join(owners)}"
            )
        sharded = owners[0]
    else:
        # round_robin: shard the biggest referenced table (ties by name).
        sharded = max(set(tables), key=lambda t: (catalog[t].nbytes, t))
    if tables.count(sharded) != 1:
        return _ineligible(
            f"table {sharded!r} is scanned more than once; sharding it "
            "would need multi-occurrence placement"
        )
    for node in walk(inner):
        if isinstance(node, SemiJoin) and _contains_scan(node.right, sharded):
            # A semi/anti membership set built from one shard is
            # incomplete: semi keeps too few rows, anti keeps too many.
            return _ineligible(
                f"a semi/anti join builds its key set from sharded table "
                f"{sharded!r}; the membership test needs the whole table"
            )

    inner_group_keys = tuple(
        frozenset(node.keys)
        for node in walk(inner.child)
        if isinstance(node, GroupBy) and _contains_scan(node, sharded)
    )
    broadcast_sound = colocated(spec, inner_group_keys)
    replicated = tuple(sorted(set(tables) - {sharded}))

    join_exchange, shuffle_reason = _analyze_top_join(
        inner, catalog, sharded, tables
    )
    shuffle_sound = join_exchange is not None and colocated(
        PartitionSpec("hash", join_exchange.fact_key), inner_group_keys
    )
    if join_exchange is not None and not shuffle_sound:
        shuffle_reason = (
            "re-sharding on the join key would break an inner group-by's "
            "colocation"
        )
        join_exchange = None
    if not broadcast_sound and join_exchange is None:
        return _ineligible(
            f"{spec} does not colocate an inner group-by's keys and no "
            f"shuffle alternative exists ({shuffle_reason})"
        )

    return DistributedDecision(
        eligible=True,
        reason="",
        sharded_table=sharded,
        spec=spec,
        split=split,
        replicated=replicated,
        broadcast_sound=broadcast_sound,
        join_exchange=join_exchange,
        shuffle_reason=shuffle_reason,
        inner_group_keys=inner_group_keys,
    )


def _find_top_join(node: PlanNode) -> Optional[Join]:
    """The first Join on the single-child spine below the merge point."""
    while isinstance(node, (Filter, Project)):
        node = node.child
    return node if isinstance(node, Join) else None


def _analyze_top_join(
    inner: GroupBy,
    catalog: Dict[str, Table],
    sharded: str,
    tables: List[str],
) -> Tuple[Optional[JoinExchangePlan], str]:
    """Shuffle-exchange facts for the top join (None + reason if not)."""
    top = _find_top_join(inner.child)
    if top is None:
        return None, "no join below the merge point"
    left_has = _contains_scan(top.left, sharded)
    if left_has and _contains_scan(top.right, sharded):
        return None, f"both join sides reach {sharded!r}"
    if left_has:
        fact_key, build_side, build_key = (
            top.left_on, top.right, top.right_on
        )
    elif _contains_scan(top.right, sharded):
        fact_key, build_side, build_key = (
            top.right_on, top.left, top.left_on
        )
    else:
        return None, f"the top join does not touch {sharded!r}"
    if fact_key not in catalog[sharded]:
        return None, (
            f"join key {fact_key!r} is not a stored column of {sharded!r}"
        )
    owners = sorted(
        {
            t for t in set(_scan_tables(build_side))
            if build_key in catalog[t]
        }
    )
    if len(owners) != 1:
        return None, (
            f"build join key {build_key!r} must come from exactly one "
            f"base table (candidates: {', '.join(owners) or 'none'})"
        )
    build_table = owners[0]
    if tables.count(build_table) != 1:
        return None, f"build table {build_table!r} is scanned more than once"
    for node in walk(build_side):
        if (
            isinstance(node, GroupBy)
            and _contains_scan(node, build_table)
            and build_key not in node.keys
        ):
            return None, (
                f"a build-side group-by does not key on {build_key!r}"
            )
    return JoinExchangePlan(fact_key, build_table, build_key), ""
