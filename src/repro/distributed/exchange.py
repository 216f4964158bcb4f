"""Exchange operators: pricing data movement across a device group.

Three operators cover the movement patterns of distributed query plans.
Each is a small description object whose :meth:`run` prices the pattern's
peer copies on a :class:`~repro.gpu.topology.DeviceGroup` — contention
(shared copy engines, per-pair channels) falls out of the topology layer,
so a broadcast from one device serialises on that device's D2H engine
while shuffles between disjoint pairs overlap.

* :class:`Broadcast` — one origin device sends a full copy to every other
  device; cost grows with ``(N - 1) * bytes``.
* :class:`Shuffle` — an all-to-all redistribution described by a movement
  matrix (``moved[src][dst]`` bytes); each source's sends serialise on
  its engine, different sources overlap.
* :class:`Gather` — every device sends its (small) partial result to one
  root device, where the host merges them.

:func:`choose_exchange` is the cost model that picks broadcast vs shuffle
for a distributed join, mirroring how the single-device optimizer picks
join algorithms: estimate both patterns' wall time from link parameters,
take the cheaper.  The decision flips with the build side's size — small
builds broadcast, large builds shuffle — which is the classic distributed
join crossover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.gpu.topology import DeviceGroup

#: Exchange modes a distributed join can use.
EXCHANGE_MODES = ("broadcast", "shuffle")


@dataclass(frozen=True)
class Broadcast:
    """Replicate ``nbytes`` from ``origin`` to every other device."""

    nbytes: int
    origin: int = 0

    def run(self, group: DeviceGroup, label: str = "broadcast") -> float:
        if len(group) <= 1 or self.nbytes <= 0:
            return 0.0
        t0 = group.now()
        for dst in range(len(group)):
            if dst != self.origin:
                group.copy_d2d(self.origin, dst, self.nbytes, label=label)
        return group.now() - t0


@dataclass(frozen=True)
class Shuffle:
    """All-to-all redistribution: ``moved[src][dst]`` bytes per pair."""

    moved: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_matrix(cls, moved: Sequence[Sequence[int]]) -> "Shuffle":
        return cls(tuple(tuple(int(b) for b in row) for row in moved))

    @property
    def total_bytes(self) -> int:
        return sum(
            b for src, row in enumerate(self.moved)
            for dst, b in enumerate(row) if src != dst
        )

    def run(self, group: DeviceGroup, label: str = "shuffle") -> float:
        if len(group) <= 1 or self.total_bytes <= 0:
            return 0.0
        t0 = group.now()
        for src, row in enumerate(self.moved):
            for dst, nbytes in enumerate(row):
                if src != dst and nbytes > 0:
                    group.copy_d2d(src, dst, nbytes, label=label)
        return group.now() - t0


@dataclass(frozen=True)
class Gather:
    """Collect per-device partials (``nbytes[i]`` from device i) at the
    root; the root's own partial does not move."""

    nbytes: Tuple[int, ...]
    root: int = 0

    def run(self, group: DeviceGroup, label: str = "gather") -> float:
        if len(group) <= 1:
            return 0.0
        t0 = group.now()
        for src, nbytes in enumerate(self.nbytes):
            if src != self.root and nbytes > 0:
                group.copy_d2d(src, self.root, nbytes, label=label)
        return group.now() - t0


# -- broadcast-vs-shuffle cost model ----------------------------------------


@dataclass(frozen=True)
class ExchangeChoice:
    """Outcome of the broadcast-vs-shuffle decision for one join."""

    mode: str
    broadcast_cost: float
    shuffle_cost: float
    #: Bytes the chosen pattern moves over the interconnect.
    moved_bytes: int
    #: True when shuffle must first re-partition the fact side onto the
    #: join key (stored partitioning differs from the join column).
    reshard_required: bool


def choose_exchange(
    group: DeviceGroup,
    build_bytes: int,
    fact_bytes: int,
    reshard_required: bool,
) -> ExchangeChoice:
    """Pick broadcast or shuffle for a distributed hash join.

    ``build_bytes`` is the build side's referenced payload, ``fact_bytes``
    the (sharded) fact side's.  Broadcast replicates the whole build side
    to every device; shuffle hash-partitions it instead, sending each
    device only its ``1/N`` slice, but must additionally re-partition the
    fact side onto the join key when the stored layout does not already
    colocate it (``reshard_required``).  Costs are modelled wall times of
    the two patterns — per-device sends serialise on the origin's copy
    engine, matching how :meth:`Broadcast.run`/:meth:`Shuffle.run` price
    the real copies.
    """
    n = len(group)
    if n <= 1:
        return ExchangeChoice("broadcast", 0.0, 0.0, 0, reshard_required)
    broadcast_cost = (n - 1) * group.d2d_time(build_bytes)
    # Shuffle: the origin sends N-1 slices of B/N; the fact reshard is an
    # all-to-all where each device sends (N-1) slices of F/N^2 — both
    # serialise on their origin engines.
    shuffle_cost = (n - 1) * group.d2d_time(build_bytes // n)
    fact_moved = 0
    if reshard_required:
        per_pair = fact_bytes // (n * n)
        shuffle_cost += (n - 1) * group.d2d_time(per_pair)
        fact_moved = fact_bytes * (n - 1) // n
    if broadcast_cost <= shuffle_cost:
        return ExchangeChoice(
            "broadcast", broadcast_cost, shuffle_cost,
            (n - 1) * build_bytes, reshard_required,
        )
    return ExchangeChoice(
        "shuffle", broadcast_cost, shuffle_cost,
        build_bytes * (n - 1) // n + fact_moved, reshard_required,
    )


def movement_matrix(
    old_assignment: Sequence[Sequence[int]],
    row_bytes: float,
) -> List[List[int]]:
    """Shuffle matrix from per-shard movement counts.

    ``old_assignment[src][dst]`` is the number of rows currently on shard
    ``src`` that the new partitioning sends to ``dst``; ``row_bytes`` is
    the average payload per row.  Diagonal entries (rows that stay put)
    are zeroed.
    """
    matrix: List[List[int]] = []
    for src, row in enumerate(old_assignment):
        matrix.append([
            0 if src == dst else int(round(count * row_bytes))
            for dst, count in enumerate(row)
        ])
    return matrix
