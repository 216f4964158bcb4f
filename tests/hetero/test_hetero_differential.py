"""Differential gate: placement never changes answers, per TPC-H query.

Every registered TPC-H query runs through the
:class:`~repro.hetero.HeterogeneousExecutor` three times — pure-CPU
placement, pure-GPU placement, and the cost-chosen (auto) placement —
and all three results must match the query module's NumPy oracle *and*
each other bit for bit.  Forcing the pure modes exercises both
single-device interpreters end to end; auto exercises the staging path
wherever the model actually mixes devices.  The sweep parametrizes over
the full ``ALL_QUERIES`` registry (enforced by
``tests/tpch/test_query_coverage.py``), so a new query cannot land
without heterogeneous-placement coverage.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core import default_framework
from repro.hetero import CPU, GPU, HeterogeneousExecutor, PLACEMENT_MODES
from repro.tpch import ALL_QUERIES, TpchGenerator
from repro.tpch.queries import q18

SCALE_FACTOR = 0.004
SEED = 55

#: Keeps Q18's result non-empty at this scale (as in the tiered gate).
PARAM_OVERRIDES = {"Q18": q18.Q18Params(min_quantity=150.0)}

QUERY_NAMES = tuple(sorted(ALL_QUERIES))


@pytest.fixture(scope="module")
def catalog():
    return TpchGenerator(scale_factor=SCALE_FACTOR, seed=SEED).generate()


def _call(func, catalog, params):
    kwargs = {} if params is None else {"params": params}
    if "catalog" in inspect.signature(func).parameters:
        return func(catalog, **kwargs)
    return func(**kwargs)


def _plan(name, catalog):
    module = ALL_QUERIES[name]
    return _call(module.plan, catalog, PARAM_OVERRIDES.get(name))


def _reference(name, catalog):
    """The oracle columns with the plan's LIMIT applied (Q3/Q10-style
    oracles return the full ranking; Q3 hardcodes its top-10)."""
    module = ALL_QUERIES[name]
    params = PARAM_OVERRIDES.get(name)
    expected = _call(module.reference, catalog, params)
    effective = params if params is not None else module.DEFAULT_PARAMS
    limit = getattr(effective, "limit", 10 if name == "Q3" else None)
    if limit is not None:
        expected = {key: data[:limit] for key, data in expected.items()}
    return expected


def _assert_oracle(table, expected, context):
    rows = len(next(iter(expected.values()))) if expected else 0
    assert table.num_rows == rows, context
    for column, want in expected.items():
        got = table.column(column).data
        if np.issubdtype(np.asarray(want).dtype, np.floating):
            assert np.allclose(got, want, rtol=1e-9), (context, column)
        else:
            assert np.array_equal(got, want), (context, column)


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_every_mode_is_oracle_and_bit_identical(name, catalog):
    executor = HeterogeneousExecutor(
        default_framework().create("compiled"), catalog
    )
    plan = _plan(name, catalog)
    expected = _reference(name, catalog)
    tables = {}
    for mode in PLACEMENT_MODES:
        result = executor.execute(plan, mode=mode)
        _assert_oracle(result.table, expected, (name, mode))
        tables[mode] = result.table
    baseline = tables[PLACEMENT_MODES[0]]
    for mode in PLACEMENT_MODES[1:]:
        other = tables[mode]
        assert other.column_names == baseline.column_names, (name, mode)
        for column in baseline.column_names:
            want = baseline.column(column).data
            got = other.column(column).data
            assert got.dtype == want.dtype, (name, mode, column)
            assert got.tobytes() == want.tobytes(), (name, mode, column)


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_forced_modes_actually_pin_the_devices(name, catalog):
    """mode="cpu"/"gpu" must place *every* segment on that side — the
    pure runs are only meaningful baselines if nothing leaks across."""
    executor = HeterogeneousExecutor(
        default_framework().create("compiled"), catalog
    )
    plan = _plan(name, catalog)
    for mode, device in (("cpu", CPU), ("gpu", GPU)):
        executor.execute(plan, mode=mode)
        assert set(executor.last_placement.devices) == {device}, (
            name, mode, executor.last_placement.devices,
        )


def test_hybrid_placements_occur_in_the_suite(catalog):
    """At this scale the cost model must actually mix devices somewhere
    — otherwise the staging path has no whole-query coverage at all."""
    mixed = []
    for name in QUERY_NAMES:
        executor = HeterogeneousExecutor(
            default_framework().create("compiled"), catalog
        )
        executor.execute(_plan(name, catalog), mode="auto")
        devices = set(executor.last_placement.devices)
        if devices == {CPU, GPU}:
            mixed.append(name)
    assert mixed, "auto placement never mixed devices on any query"


#: Every GPU-side backend the default framework registers.
GPU_BACKENDS = tuple(
    name for name in default_framework().backend_names
    if not name.startswith("cpu-")
)


@pytest.mark.parametrize("backend", GPU_BACKENDS)
def test_auto_placement_matches_the_oracle_on_every_gpu_backend(
    backend, catalog
):
    """Staging wraps each column as the GPU backend's own handle, so
    mixed placements run over every library, ArrayFire's lazy arrays
    included.  Checked against the oracle, not bitwise against the pure
    modes: Thrust and Boost.Compute sum in their own order, so their
    pure-GPU tables differ from pure-CPU ones in the last bits."""
    executor = HeterogeneousExecutor(
        default_framework().create(backend), catalog
    )
    for name in QUERY_NAMES:
        result = executor.execute(_plan(name, catalog), mode="auto")
        _assert_oracle(
            result.table, _reference(name, catalog), (backend, name)
        )
