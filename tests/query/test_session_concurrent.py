"""Interleaved sessions under memory pressure: pins must hold.

The serving layer interleaves queries from per-tenant sessions on one
device.  Device memory pressure triggered by one session's uploads walks
*every* registered pressure callback — so a buggy eviction path could
free a column another session's in-flight query still references.  The
regression pinned here: columns in the in-flight pin set survive
cross-session pressure eviction; only cold residents are sacrificed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import default_framework
from repro.core.expr import col
from repro.gpu import GTX_1080TI, Device
from repro.query import GpuSession, scan


def _table_arrays(nbytes: int) -> np.ndarray:
    return np.arange(nbytes // 8, dtype=np.float64)


@pytest.fixture
def device():
    spec = dataclasses.replace(GTX_1080TI, memory_bytes=1_200_000)
    return Device(spec)


@pytest.fixture
def backend(device):
    return default_framework().create("thrust", device)


def _sum_plan(table: str, column: str):
    return scan(table).aggregate([("s", "sum", col(column))]).build()


def _hook_first_reduction(monkeypatch, backend, hook):
    """Run ``hook()`` once, at the first ``backend.reduction`` call.

    A sum plan's one operator after its scan, so ``hook`` runs while the
    query is in flight with its scanned column cached and pinned.
    """
    reduction = backend.reduction
    fired = []

    def hooked(values, agg="sum"):
        if not fired:
            fired.append(True)
            hook()
        return reduction(values, agg)

    monkeypatch.setattr(backend, "reduction", hooked)
    return fired


class TestCrossSessionPressure:
    def test_pinned_columns_survive_another_sessions_pressure(
        self, backend, monkeypatch
    ):
        """Session B is mid-query (column x pinned) when session A's
        upload forces eviction: B's cold resident v goes, x stays."""
        from repro.relational.table import Table

        catalog_b = {
            "t0": Table.from_arrays("t0", {"v": _table_arrays(200_000)}),
            "t": Table.from_arrays("t", {"x": _table_arrays(300_000)}),
        }
        catalog_a = {
            "abig": Table.from_arrays("abig", {"z": _table_arrays(800_000)}),
        }
        session_a = GpuSession(backend, catalog_a)
        session_b = GpuSession(backend, catalog_b)

        # Warm B's cold resident (v), then run B's main query on x with a
        # hook that interleaves A's big query once x is scanned.
        session_b.execute(_sum_plan("t0", "v"))
        assert ("t0", "v") in session_b.resident_columns

        observed = {}

        def interleave():
            # A's 800 KB upload cannot fit next to v + x: pressure must
            # evict B's cold v but never B's pinned x.
            result_a = session_a.execute(_sum_plan("abig", "z"))
            observed["a_sum"] = result_a.table.column("s").data[0]
            observed["b_cache_during"] = set(session_b.resident_columns)
            observed["b_in_flight"] = session_b.in_flight

        fired = _hook_first_reduction(monkeypatch, backend, interleave)
        result_b = session_b.execute(_sum_plan("t", "x"))

        assert fired, "interleaving hook never fired"
        assert observed["b_in_flight"] is True
        assert ("t", "x") in observed["b_cache_during"], \
            "pinned in-flight column was evicted by another session"
        assert ("t0", "v") not in observed["b_cache_during"], \
            "pressure did not evict the cold resident"
        assert session_b.pressure_evictions >= 1
        # Both queries still produce oracle-correct answers.
        assert observed["a_sum"] == pytest.approx(
            catalog_a["abig"].column("z").data.sum()
        )
        assert result_b.table.column("s").data[0] == pytest.approx(
            catalog_b["t"].column("x").data.sum()
        )

    def test_explicit_evict_skips_in_flight_pins(self, backend, monkeypatch):
        from repro.relational.table import Table

        catalog = {"t": Table.from_arrays("t", {"x": _table_arrays(80_000)})}
        session = GpuSession(backend, catalog)
        evicted_during = {}

        def evict():
            evicted_during["count"] = session.evict()
            evicted_during["cache"] = set(session.resident_columns)

        _hook_first_reduction(monkeypatch, backend, evict)
        result = session.execute(_sum_plan("t", "x"))
        assert evicted_during["count"] == 0
        assert ("t", "x") in evicted_during["cache"]
        assert result.table.column("s").data[0] == pytest.approx(
            catalog["t"].column("x").data.sum()
        )


class TestReentrancy:
    def test_nested_execute_restores_outer_pins(self, backend, monkeypatch):
        from repro.relational.table import Table

        catalog = {
            "outer": Table.from_arrays("outer", {"x": _table_arrays(80_000)}),
            "inner": Table.from_arrays("inner", {"y": _table_arrays(80_000)}),
        }
        session = GpuSession(backend, catalog)
        observed = {}

        def nest():
            session.execute(_sum_plan("inner", "y"))
            # The inner query finished; the outer query's pin must be
            # restored, not cleared: eviction frees only the inner column.
            observed["evicted"] = session.evict()
            observed["resident"] = set(session.resident_columns)
            observed["in_flight"] = session.in_flight

        _hook_first_reduction(monkeypatch, backend, nest)
        result = session.execute(_sum_plan("outer", "x"))
        assert observed["evicted"] == 1
        assert observed["resident"] == {("outer", "x")}
        assert observed["in_flight"] is True
        assert session.in_flight is False
        # The outermost query's pins end with it.
        assert session.evict() == 1
        assert result.table.column("s").data[0] == pytest.approx(
            catalog["outer"].column("x").data.sum()
        )

    def test_replace_table_refused_while_in_flight(self, backend, monkeypatch):
        from repro.relational.table import Table

        table = Table.from_arrays("t", {"x": _table_arrays(8_000)})
        session = GpuSession(backend, {"t": table})
        failures = []

        def replace():
            with pytest.raises(RuntimeError):
                session.replace_table("t", table)
            failures.append(True)

        _hook_first_reduction(monkeypatch, backend, replace)
        session.execute(_sum_plan("t", "x"))
        assert failures

    def test_replace_table_swaps_catalog_and_evicts(self, backend):
        from repro.relational.table import Table

        old = Table.from_arrays("t", {"x": np.ones(100)})
        new = Table.from_arrays("t", {"x": np.full(100, 2.0)})
        session = GpuSession(backend, {"t": old})
        session.execute(_sum_plan("t", "x"))
        assert ("t", "x") in session.resident_columns
        session.replace_table("t", new)
        assert ("t", "x") not in session.resident_columns
        result = session.execute(_sum_plan("t", "x"))
        assert result.table.column("s").data[0] == pytest.approx(200.0)

    def test_replace_table_reaches_both_hybrid_sides(self, backend):
        """After a swap, hybrid queries read the new version on the host
        side too (the serving layer's pressure shed runs there)."""
        from repro.relational.table import Table

        old = Table.from_arrays("t", {"x": np.ones(100)})
        new = Table.from_arrays("t", {"x": np.full(100, 2.0)})
        session = GpuSession(backend, {"t": old})
        plan = _sum_plan("t", "x")
        for mode in ("cpu", "gpu"):
            session.execute_hybrid(plan, mode=mode)
        session.replace_table("t", new)
        for mode in ("cpu", "gpu"):
            total = session.execute_hybrid(plan, mode=mode).table.column("s")
            assert total.data[0] == pytest.approx(200.0), mode
