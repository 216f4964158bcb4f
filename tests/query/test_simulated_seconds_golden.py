"""Golden snapshot: the exact simulated seconds of the 16 TPC-H queries.

Simulated time is a pure function of the plan, the data and the order in
which the runner computes and frees intermediates, so a refactor of plan
execution must leave every value bit-identical.  Each configuration runs
the 16 queries in order on one executor.  The pooled device, the pooled
session and the undersized tiered store carry allocator and residency
state from one query to the next, so they also catch a change in
execution order or intermediate lifetime that a fresh device would not
show.  The partitioned configurations pin the partial -> merge paths:
configured chunked scans, OOM recovery (an injected fault and a device
too small for the data) and multi-device shards under each partitioner.

Values are stored as ``float.hex`` strings, or as the class name of the
:class:`~repro.errors.ReproError` a query raises.  Regenerate after an
*intentional* cost-model change with::

    PYTHONPATH=src python tests/query/test_simulated_seconds_golden.py
"""

from __future__ import annotations

import inspect
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

from repro.core import default_framework
from repro.distributed import DistributedExecutor
from repro.errors import ReproError
from repro.gpu import GTX_1080TI, Device, DeviceGroup
from repro.hetero import HeterogeneousExecutor
from repro.query import GpuSession, QueryExecutor
from repro.storage import TieredColumnStore
from repro.tpch import ALL_QUERIES, TpchGenerator
from repro.tpch.queries import q18

GOLDEN = Path(__file__).parent / "golden" / "simulated_seconds.json"

SCALE_FACTOR = 0.004
SEED = 11
#: Q18's default threshold matches no orders at this scale factor.
PARAMS = {"Q18": q18.Q18Params(min_quantity=150.0)}
QUERY_NAMES = tuple(sorted(ALL_QUERIES, key=lambda name: int(name[1:])))


def _plans(catalog) -> Dict[str, object]:
    plans = {}
    for name in QUERY_NAMES:
        module = ALL_QUERIES[name]
        kwargs = {"params": PARAMS[name]} if name in PARAMS else {}
        if "catalog" in inspect.signature(module.plan).parameters:
            plans[name] = module.plan(catalog, **kwargs)
        else:
            plans[name] = module.plan(**kwargs)
    return plans


def _backend(name: str, allocator: str = "null", device=None):
    if device is None:
        device = Device(GTX_1080TI, allocator=allocator)
    return default_framework().create(name, device)


def _tiered_device(catalog) -> Tuple[Device, TieredColumnStore]:
    """A fresh device with a store far smaller than the catalog."""
    device = Device(GTX_1080TI)
    store = TieredColumnStore(
        device, device_budget=64 * 1024, host_budget=96 * 1024,
        chunk_rows=1024,
    )
    for table in sorted(catalog):
        store.ingest_table(catalog[table])
    return device, store


def _rearmed(executor: QueryExecutor, oom_at_alloc: int) -> Callable:
    """``executor.execute`` with an OOM fault armed before every query."""
    def execute(plan):
        executor.backend.device.inject_faults(oom_at_alloc=oom_at_alloc)
        return executor.execute(plan)
    return execute


def _configurations(catalog) -> Iterator[Tuple[str, Callable]]:
    """(name, execute) per configuration, each on its own device."""
    for name in ("thrust", "boost.compute", "arrayfire", "handwritten",
                 "compiled"):
        yield name, QueryExecutor(_backend(name), catalog).execute
    hetero = HeterogeneousExecutor(
        _backend("handwritten"), catalog, mode="auto"
    )
    yield "hetero-auto", hetero.execute
    yield "thrust-pool", QueryExecutor(
        _backend("thrust", "pool"), catalog
    ).execute
    session = GpuSession(_backend("thrust", "pool"), catalog)
    yield "session-pool", session.execute
    device, store = _tiered_device(catalog)
    yield "handwritten-tiered", QueryExecutor(
        _backend("handwritten", device=device), catalog, store=store
    ).execute
    for name in ("thrust", "compiled"):
        yield f"{name}-chunks4", QueryExecutor(
            _backend(name, "pool"), catalog, scan_chunks=4
        ).execute
    device, store = _tiered_device(catalog)
    yield "handwritten-tiered-chunks3", QueryExecutor(
        _backend("handwritten", device=device), catalog, store=store,
        scan_chunks=3,
    ).execute
    yield "thrust-oom-at-3", _rearmed(
        QueryExecutor(_backend("thrust"), catalog), oom_at_alloc=3
    )
    small = Device(replace(GTX_1080TI, memory_bytes=600_000), allocator="pool")
    yield "handwritten-600k", QueryExecutor(
        _backend("handwritten", device=small), catalog
    ).execute
    for devices, partition, chunks in (
        (2, "hash:l_orderkey", None),
        (4, "hash:l_orderkey", None),
        (2, "range:l_orderkey", None),
        (3, "round_robin", None),
        (2, "hash:l_orderkey", 4),
    ):
        suffix = f"-chunks{chunks}" if chunks else ""
        yield f"{devices}dev-{partition}{suffix}", DistributedExecutor(
            DeviceGroup.of_size(devices), "thrust", catalog, partition,
            scan_chunks=chunks,
        ).execute


def _value(execute: Callable, plan) -> str:
    """The golden entry for one query: its seconds or its error class."""
    try:
        return float.hex(execute(plan).report.simulated_seconds)
    except ReproError as exc:
        return type(exc).__name__


def snapshot() -> Dict[str, Dict[str, str]]:
    """``{configuration: {query: value}}``, values as in :func:`_value`."""
    catalog = TpchGenerator(scale_factor=SCALE_FACTOR, seed=SEED).generate()
    plans = _plans(catalog)
    result: Dict[str, Dict[str, str]] = {}
    for config, execute in _configurations(catalog):
        result[config] = {
            name: _value(execute, plans[name]) for name in QUERY_NAMES
        }
    return result


def test_simulated_seconds_match_golden_exactly():
    assert GOLDEN.exists(), (
        f"golden file missing: {GOLDEN}; regenerate with "
        "`PYTHONPATH=src python tests/query/test_simulated_seconds_golden.py`"
    )
    expected = json.loads(GOLDEN.read_text())
    actual = snapshot()
    assert list(actual) == list(expected)
    for config, values in expected.items():
        assert actual[config] == values, config


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    GOLDEN.write_text(json.dumps(snapshot(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
