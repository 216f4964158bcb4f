"""Golden snapshot: the exact simulated seconds of the 16 TPC-H queries.

Simulated time is a pure function of the plan, the data and the order in
which the runner computes and frees intermediates, so a refactor of plan
execution must leave every value bit-identical.  Nine configurations
each run the 16 queries in order on one executor.  The pooled device,
the pooled session and the undersized tiered store carry allocator and
residency state from one query to the next, so they also catch a change
in execution order or intermediate lifetime that a fresh device would
not show.

Values are stored as ``float.hex`` strings.  Regenerate after an
*intentional* cost-model change with::

    PYTHONPATH=src python tests/query/test_simulated_seconds_golden.py
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

from repro.core import default_framework
from repro.gpu import GTX_1080TI, Device
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
    device = Device(GTX_1080TI)
    store = TieredColumnStore(
        device, device_budget=64 * 1024, host_budget=96 * 1024,
        chunk_rows=1024,
    )
    for table in sorted(catalog):
        store.ingest_table(catalog[table])
    yield "handwritten-tiered", QueryExecutor(
        _backend("handwritten", device=device), catalog, store=store
    ).execute


def snapshot() -> Dict[str, Dict[str, str]]:
    """``{configuration: {query: float.hex(simulated_seconds)}}``."""
    catalog = TpchGenerator(scale_factor=SCALE_FACTOR, seed=SEED).generate()
    plans = _plans(catalog)
    result: Dict[str, Dict[str, str]] = {}
    for config, execute in _configurations(catalog):
        result[config] = {
            name: float.hex(execute(plans[name]).report.simulated_seconds)
            for name in QUERY_NAMES
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
