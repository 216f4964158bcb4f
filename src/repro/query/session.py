"""Resident-column sessions.

:class:`~repro.query.executor.QueryExecutor` re-uploads scanned columns on
every execution — the *streaming* regime.  Real GPU DBMSes (the systems
the paper cites: SQreamDB, BlazingDB) keep hot columns resident in device
memory and pay the PCIe cost once.  :class:`GpuSession` adds that cache:
the first query touching a column uploads it, later queries reuse the
device handle.

The cache is LRU-ordered and *pressure-aware*: the session registers a
callback with the device's :class:`~repro.gpu.memory.MemoryManager`, so
when an allocation would fail, resident columns are evicted — least
recently used first, columns pinned by the in-flight query excluded —
until the allocation fits.  Evicted columns simply re-upload on their
next touch.  :meth:`GpuSession.evict` frees device memory explicitly and
:meth:`GpuSession.close` (or a ``with`` block) releases everything the
session holds, including the device pool's cached blocks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.core.backend import Handle, OperatorBackend
from repro.query.executor import ExecutionResult, QueryExecutor
from repro.query.plan import PlanNode
from repro.query.runner import PipelineRunner
from repro.relational.table import Table


class _ResidentRunner(PipelineRunner):
    """Runner whose scans go through the session's column cache.

    Cached columns are reused; the misses take the ordinary scan upload
    and each is cached as it arrives.  ``pins`` holds the cache keys the
    in-flight query has touched: those handles are reachable from the
    query's intermediate relations, so the session's pressure eviction
    must not free them mid-plan.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        cache: "OrderedDict[Tuple[str, str], Handle]",
    ) -> None:
        super().__init__(
            executor.backend,
            executor.catalog,
            join_strategy=executor.join_strategy,
            store=executor.store,
        )
        self.cache = cache
        self.pins: Set[Tuple[str, str]] = set()

    def upload_scan_columns(self, table_name, names, table):
        missing = []
        for name in names:
            key = (table_name, name)
            cached = self.cache.get(key)
            if cached is None:
                missing.append(name)
                continue
            self.cache.move_to_end(key)  # most recently used last
            self.pins.add(key)
            yield name, cached
        for name, handle in super().upload_scan_columns(
            table_name, missing, table
        ):
            # Cached and pinned before the next miss allocates, so that
            # allocation's pressure cannot evict it.
            self.cache[(table_name, name)] = handle
            self.pins.add((table_name, name))
            yield name, handle


class GpuSession:
    """A long-lived query session with resident columns.

    Example::

        with GpuSession(backend, catalog) as session:
            session.execute(q6.plan())   # uploads lineitem columns
            session.execute(q6.plan())   # reuses them: no transfer time
    """

    def __init__(
        self,
        backend: OperatorBackend,
        catalog: Dict[str, Table],
        join_strategy: Optional[str] = None,
        store=None,
    ) -> None:
        self.backend = backend
        self.catalog = dict(catalog)
        self.store = store
        self._cache: "OrderedDict[Tuple[str, str], Handle]" = OrderedDict()
        self._executor = QueryExecutor(
            backend, self.catalog, join_strategy=join_strategy, store=store
        )
        self._runner = _ResidentRunner(self._executor, self._cache)
        self._executor.runner = self._runner
        self._closed = False
        #: Lazily-built heterogeneous executor (see :meth:`execute_hybrid`).
        self._hetero = None
        #: Re-entrancy depth of :meth:`execute` — positive while a query
        #: is in flight, so eviction paths know which pins are live.
        self._depth = 0
        #: Plain cached columns dropped by memory pressure (their next
        #: touch re-uploads raw bytes over PCIe), with exact bytes.
        self.pressure_evictions = 0
        self.pressure_evicted_bytes = 0
        #: Store-managed columns dropped by memory pressure (their data
        #: survives compressed in the tiered store; the next touch
        #: re-promotes + decodes instead of re-uploading).  Previously
        #: these were miscounted as evictions.
        self.pressure_spills = 0
        self.pressure_spilled_bytes = 0
        backend.device.memory.register_pressure_callback(
            self._relieve_pressure
        )

    @property
    def join_strategy(self) -> Optional[str]:
        """Session-wide override for undecided (auto/cost) joins."""
        return self._executor.join_strategy

    def execute(self, plan: PlanNode, result_name: str = "result") -> ExecutionResult:
        """Execute a plan, reusing resident columns.

        Re-entrant: a nested :meth:`execute` (sessions interleaved by the
        serving layer, or a query issued from inside another's callback)
        restores the outer query's pins when it finishes instead of
        clearing them — so memory pressure during the inner query can
        never evict columns the outer query still references.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        saved = set(self._runner.pins)
        self._depth += 1
        try:
            return self._executor.execute(plan, result_name)
        finally:
            self._depth -= 1
            self._runner.pins = saved if self._depth > 0 else set()

    def execute_hybrid(
        self,
        plan: PlanNode,
        result_name: str = "result",
        mode: str = "auto",
    ) -> ExecutionResult:
        """Execute a plan under CPU/GPU placement (see :mod:`repro.hetero`).

        The session's caching executor serves as the *GPU side* of the
        heterogeneous executor, so GPU-placed pipelines still hit the
        resident-column cache (and pin what they touch, exactly like
        :meth:`execute`); CPU-placed pipelines run on the host device
        with free transfers.  ``mode`` is ``"auto"`` (cost-chosen),
        ``"cpu"``, or ``"gpu"`` — the serving layer's pressure shed
        forces ``"cpu"`` to keep a query off the device entirely.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if self._hetero is None:
            # Lazy import: repro.hetero composes executors from this
            # module, so a top-level import would be a cycle.
            from repro.hetero import HeterogeneousExecutor

            self._hetero = HeterogeneousExecutor(gpu_executor=self._executor)
        saved = set(self._runner.pins)
        self._depth += 1
        try:
            return self._hetero.execute(plan, result_name, mode=mode)
        finally:
            self._depth -= 1
            self._runner.pins = saved if self._depth > 0 else set()

    @property
    def in_flight(self) -> bool:
        """True while a query (possibly nested) is executing."""
        return self._depth > 0

    @property
    def resident_columns(self) -> Tuple[Tuple[str, str], ...]:
        """(table, column) pairs currently resident on the device."""
        return tuple(sorted(self._cache))

    @property
    def resident_bytes(self) -> int:
        """Device bytes pinned by the session cache."""
        return sum(
            _handle_nbytes(handle) for handle in self._cache.values()
        )

    def evict(self, table: Optional[str] = None) -> int:
        """Free resident columns (all, or one table's); returns how many.

        Columns pinned by an in-flight query are skipped: their handles
        are reachable from the query's intermediate relations, so freeing
        them mid-plan would corrupt the running execution.
        """
        pinned = self._runner.pins if self._depth > 0 else frozenset()
        keys = [
            key for key in self._cache
            if (table is None or key[0] == table) and key not in pinned
        ]
        for key in keys:
            handle = self._cache.pop(key)
            _free_handle(handle)
        return len(keys)

    def replace_table(self, name: str, table: Table) -> None:
        """Swap in a new version of a base table.

        Updates the session's catalog and evicts the table's resident
        columns so the next query re-uploads fresh data.  Refused while a
        query is in flight — a mid-plan swap would let one query read a
        mix of old and new column versions.
        """
        if self._depth > 0:
            raise RuntimeError(
                "cannot replace a table while a query is in flight"
            )
        self.catalog[name] = table
        self._executor.catalog[name] = table
        if self._hetero is not None:
            # The hybrid executor's host side scans its own catalog copy.
            self._hetero.cpu.catalog[name] = table
        self.evict(name)

    def _relieve_pressure(self, needed: int) -> int:
        """Memory-pressure callback: evict LRU columns until ``needed``
        bytes are freed (or nothing evictable remains); returns the bytes
        released.  Columns the in-flight query holds are pinned.

        Each dropped column is classified: store-managed columns count as
        *spills* (the data stays compressed in the tiered store — only
        device residency is lost), everything else as *evictions* (the
        next touch pays a full raw re-upload).  Byte counters record the
        exact device bytes each class released.
        """
        freed = 0
        for key in list(self._cache):
            if freed >= needed:
                break
            if key in self._runner.pins:
                continue
            handle = self._cache.pop(key)
            nbytes = _handle_nbytes(handle)
            freed += nbytes
            _free_handle(handle)
            if self.store is not None and self.store.manages(*key):
                self.pressure_spills += 1
                self.pressure_spilled_bytes += nbytes
            else:
                self.pressure_evictions += 1
                self.pressure_evicted_bytes += nbytes
        return freed

    def close(self) -> None:
        """Release everything the session holds: evict all resident
        columns, detach the pressure callback, and return the device
        pool's cached blocks.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.evict()
        self.backend.device.memory.unregister_pressure_callback(
            self._relieve_pressure
        )
        self.backend.device.trim_pool()

    def __enter__(self) -> "GpuSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GpuSession(backend={self.backend.name!r}, "
            f"resident={len(self._cache)} columns, "
            f"{self.resident_bytes / 1e6:.1f} MB)"
        )


def _handle_nbytes(handle: Handle) -> int:
    if hasattr(handle, "nbytes"):
        return int(handle.nbytes)
    if hasattr(handle, "storage"):  # ArrayFire Array
        return int(handle.storage().nbytes)
    return int(np.asarray(handle).nbytes)


def _free_handle(handle: Handle) -> None:
    if hasattr(handle, "free"):
        handle.free()
    elif hasattr(handle, "storage"):
        handle.storage().free()
