"""The server's per-plan record against the functions it stands in for.

``QueryServer`` derives a plan's fingerprint, scanned tables, SJF cost
and working set once per plan object, re-estimating after an update of
a table the plan scans.  Serving the same stream with one plan object
per query shape, and again with a fresh copy per request (so the record
never holds a request's plan when it is enqueued), must give the same
records, and every working set must be the one ``estimate_working_set``
gives on the catalog the request ran against.
"""

from __future__ import annotations

import copy
import inspect
import itertools

import numpy as np
import pytest

from repro.core import default_framework
from repro.gpu import GTX_1080TI, Device
from repro.serve import (
    QueryRequest,
    QueryServer,
    ServerConfig,
    estimate_working_set,
)
from repro.relational.column import Column
from repro.tpch import ALL_QUERIES, TpchGenerator


@pytest.fixture(scope="module")
def catalog():
    return TpchGenerator(scale_factor=0.004, seed=19920101).generate()


@pytest.fixture(scope="module")
def plans(catalog):
    plans = {}
    for name, module in ALL_QUERIES.items():
        if "catalog" in inspect.signature(module.plan).parameters:
            plans[name] = module.plan(catalog)
        else:
            plans[name] = module.plan()
    return plans


@pytest.fixture(scope="module")
def updates(catalog):
    """Table swaps applied in turn: half of lineitem (every estimate of
    a lineitem plan shrinks), lineitem back, then supplier with new
    balances (read by Q16 only inside its subquery)."""
    lineitem = catalog["lineitem"]
    supplier = catalog["supplier"]
    balance = supplier.column("s_acctbal")
    return [
        ("lineitem", lineitem.take(np.arange(lineitem.num_rows // 2))),
        ("lineitem", lineitem),
        ("supplier", supplier.with_column(Column(
            "s_acctbal", balance.ctype, np.full_like(balance.data, 1000.0)
        ))),
    ]


def _server(catalog):
    device = Device(GTX_1080TI, allocator="pool")
    backend = default_framework().create("thrust", device)
    return QueryServer(
        backend, catalog, ServerConfig(policy="sjf", num_streams=2)
    )


class _Stream:
    """Four rounds of the 16 queries, one arriving every 100 us (faster
    than they are served, so a queue builds and requests are enqueued
    between swaps), with a table swap after every 10th completion.
    Records the dispatch order and, per request, the working set
    estimated on the catalog it ran against."""

    def __init__(self, server, plans, updates, fresh_copies):
        self.server = server
        self.plans = plans
        self.updates = updates
        self.fresh_copies = fresh_copies
        self.order = []
        self.expected_bytes = {}

    def arrivals(self):
        names = sorted(self.plans) * 4
        return [
            QueryRequest(
                seq=seq, tenant=f"t{seq % 3}", name=name,
                plan=(copy.copy(self.plans[name]) if self.fresh_copies
                      else self.plans[name]),
                arrival=seq * 1e-4,
            )
            for seq, name in enumerate(names)
        ]

    def on_complete(self, record):
        # Completions come in dispatch order, right after the decision,
        # so the catalog now is the one the request ran against.
        self.order.append(record.seq)
        self.expected_bytes[record.seq] = estimate_working_set(
            self.plans[record.name], self.server.catalog
        )
        if len(self.order) % 10 == 0:
            swap = len(self.order) // 10 - 1
            name, table = self.updates[swap % len(self.updates)]
            self.server.update_table(name, table)
        return None


def _serve(catalog, plans, updates, fresh_copies):
    with _server(catalog) as server:
        stream = _Stream(server, plans, updates, fresh_copies)
        report = server.run(stream)
    return report, stream


class TestRecordMatchesTheEstimators:
    @pytest.fixture(scope="class")
    def runs(self, catalog, plans, updates):
        return (
            _serve(catalog, plans, updates, fresh_copies=False),
            _serve(catalog, plans, updates, fresh_copies=True),
        )

    def test_reused_and_fresh_plan_objects_serve_identically(self, runs):
        (kept, kept_stream), (fresh, fresh_stream) = runs

        def rows(report):
            return [
                (r.seq, r.status, r.dispatched, r.finished, r.stream_id,
                 r.estimated_bytes, r.plan_cache_hit, r.result_cache_hit,
                 r.result_rows)
                for r in report.records
            ]

        assert len(kept.records) == 64
        assert kept_stream.order == fresh_stream.order
        assert rows(kept) == rows(fresh)
        # The swaps invalidate: some requests after the first round miss.
        assert sum(not r.result_cache_hit for r in kept.records) > 16

    def test_every_working_set_is_estimated_on_the_live_catalog(self, runs):
        for report, stream in runs:
            got = {r.seq: r.estimated_bytes for r in report.records}
            assert got == stream.expected_bytes
        # The half-size lineitem moved some estimates.
        (kept, _stream), _fresh = runs
        assert any(
            len({r.estimated_bytes for r in kept.records if r.name == name}) > 1
            for name in {r.name for r in kept.records}
        )


class TestRecordBound:
    def test_beyond_capacity_the_least_recently_used_goes_first(
        self, catalog, plans
    ):
        with _server(catalog) as server:
            capacity = server.plan_cache.capacity
            copies = [copy.copy(plans["Q6"]) for _ in range(capacity + 2)]
            seqs = itertools.count()

            def submit(plan):
                server.enqueue(QueryRequest(
                    seq=next(seqs), tenant="t", name="Q6", plan=plan,
                    arrival=0.0,
                ))

            for plan in copies[:capacity]:
                submit(plan)
            submit(copies[0])  # now the most recently used
            submit(copies[capacity])
            submit(copies[capacity + 1])
            held = [record.plan for record in server._plan_records.values()]
        assert len(held) == capacity
        assert not any(plan is copies[1] or plan is copies[2] for plan in held)
        assert all(a is b for a, b in zip(
            held[-3:], [copies[0], copies[capacity], copies[capacity + 1]]
        ))
