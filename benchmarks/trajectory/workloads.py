"""The four trajectory workloads: set-up, one timed round, oracle checks.

Each workload is a :class:`Workload` with a ``build`` (generate the
catalog, prepare the plans, build the execution objects), a ``warm``
pass, and a ``round`` (one fixed, seeded unit of timed work that runs
the same operations in the same order every time).  A run builds
several times, keeps the last build, warms it once, then repeats the
round until the requested host seconds have passed, and at least three
times.  Simulated metrics come from the first round, so they are a pure
function of the seed; each operation's host time is its median over the
repeats.

The catalog seed is fixed; the workload seed draws the TPC-H
substitution parameters (one qgen-style stream per seed), the query
order of every pass, and the query mix of the request streams.  Arrival
times of the open-loop streams come from one fixed unit-rate Poisson
stream scaled to each rate (common random numbers), so seed-to-seed
differences in simulated latency come from the mix, not from how the
arrivals happened to clump.

The benchmark measures from outside: it calls public functions and
reads the counts the program already reports.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from measure import Reference, Spans, nearest_rank
from repro.core import default_framework
from repro.gpu import GTX_1080TI, Device
from repro.hetero import CPU
from repro.query import (
    GpuSession,
    QueryExecutor,
    lower_plan,
    optimize,
    push_down_top_k,
)
from repro.serve import QueryRequest, QueryServer, ServerConfig
from repro.sql import bind, parse
from repro.storage import TieredColumnStore
from repro.tpch import ALL_QUERIES, SQL_QUERIES, TpchGenerator
from repro.tpch.queries import q1, q3, q4, q5, q6, q10, q12, q14, q18, q19
from repro.tpch.schema import MARKET_SEGMENTS, REGIONS, SHIP_MODES

CATALOG_SEED = 19920101
#: Seed of the second ``lineitem`` version ``serve-rw`` swaps in.
LINEITEM_V2_SEED = 4242
#: Seed of the shared unit-rate arrival stream (see module docs).
ARRIVAL_SEED = 20210419
#: Sub-streams of the workload seed.
PARAMS_STREAM, ORDER_STREAM, MIX_STREAM = 1, 2, 3

QUERY_NAMES = tuple(sorted(ALL_QUERIES, key=lambda name: int(name[1:])))
BACKENDS = (
    "thrust", "boost.compute", "arrayfire", "handwritten", "compiled",
    "hetero-auto",
)
RATES = (700.0, 1000.0, 1300.0)
HEADLINE_RATE = 1000.0
TENANTS = 4
#: ``sim_slo_rps``: the highest swept rate whose simulated p95 stays
#: within this limit while completing at least 95% of the offered rate.
SLO_P95_MS = 8.0
SLO_MIN_THROUGHPUT = 0.95

_MONTHS = tuple(
    f"{year}-{month:02d}-01" for year in range(1993, 1998)
    for month in range(1, 13)
)
_YEARS = tuple(range(1993, 1998))


def draw_params(seed: int) -> Dict[str, object]:
    """One stream of substitution parameters for the seed.

    Ranges follow the TPC-H qgen rules, narrowed where needed so every
    query returns rows at every workload's scale factor (checked at run
    time by :func:`oracles`).  Queries not listed keep their defaults.
    Two fixed overrides keep results non-empty at these small scale
    factors: Q18 uses a quantity threshold of 150, and Q19 uses one
    brand in all three brackets (the spec default matches no rows at
    SF 0.004).
    """
    rng = np.random.default_rng([seed, PARAMS_STREAM])

    def pick(options):
        return options[int(rng.integers(len(options)))]

    mode1, mode2 = pick(tuple(itertools.combinations(SHIP_MODES, 2)))
    return {
        "Q1": q1.Q1Params(delta_days=int(rng.integers(60, 121))),
        "Q3": q3.Q3Params(
            segment=pick(MARKET_SEGMENTS),
            date=f"1995-03-{int(rng.integers(1, 32)):02d}",
        ),
        "Q4": q4.Q4Params(date=pick(_MONTHS[:58])),
        "Q5": q5.Q5Params(region=pick(REGIONS), date=f"{pick(_YEARS)}-01-01"),
        "Q6": q6.Q6Params(
            year=pick(_YEARS),
            discount=int(rng.integers(2, 10)) / 100,
            quantity=float(rng.integers(24, 26)),
        ),
        "Q10": q10.Q10Params(date=pick(_MONTHS[1:25])),
        "Q12": q12.Q12Params(
            shipmode1=mode1, shipmode2=mode2, date=f"{pick(_YEARS)}-01-01"
        ),
        "Q14": q14.Q14Params(date=pick(_MONTHS)),
        "Q18": q18.Q18Params(min_quantity=150.0),
        "Q19": q19.Q19Params(brackets=(
            ("Brand#25", "SM", 1.0, 5),
            ("Brand#25", "MED", 10.0, 10),
            ("Brand#25", "LG", 20.0, 15),
        )),
    }


# -- plans and oracles ------------------------------------------------------


def prepare(catalog, params, spans: Spans) -> Dict[str, object]:
    """Every query's plan: SQL text through parse, bind and optimize,
    the rest through their builders; each plan is also lowered to its
    pipeline program, the step the compiled and hybrid paths start with.
    """
    plans = {}
    for name in QUERY_NAMES:
        module = ALL_QUERIES[name]
        kwargs = {"params": params[name]} if name in params else {}
        with spans.span(name):
            if name in SQL_QUERIES:
                with spans.span("parse"):
                    statement = parse(module.sql(**kwargs))
                with spans.span("bind"):
                    plan = bind(statement, catalog, optimize_plan=False)
                with spans.span("optimize"):
                    plan = push_down_top_k(optimize(plan))
            else:
                with spans.span("bind"):
                    if "catalog" in inspect.signature(module.plan).parameters:
                        plan = module.plan(catalog, **kwargs)
                    else:
                        plan = module.plan(**kwargs)
            with spans.span("lower"):
                lower_plan(plan, catalog=catalog)
        plans[name] = plan
    return plans


def oracles(catalog, params) -> Dict[str, Dict[str, np.ndarray]]:
    """The NumPy oracle result of every query; refuses vacuous ones.

    A check against an empty result (or a one-row aggregate that is all
    zeros) would pass for an engine that returns nothing, so the
    benchmark fails instead.
    """
    expected = {}
    for name in QUERY_NAMES:
        module = ALL_QUERIES[name]
        query_params = params.get(name, module.DEFAULT_PARAMS)
        result = module.reference(catalog, query_params)
        # Q3's plan hardcodes its top 10; the others carry their LIMIT
        # in their parameters.
        limit = getattr(query_params, "limit", 10 if name == "Q3" else None)
        if limit is not None:
            result = {column: data[:limit] for column, data in result.items()}
        if _vacuous(result):
            raise RuntimeError(
                f"{name} oracle is vacuous at this scale with {query_params}"
            )
        expected[name] = result
    return expected


def _vacuous(result: Dict[str, np.ndarray]) -> bool:
    rows = len(next(iter(result.values())))
    if rows == 0:
        return True
    if rows > 1:
        return False
    return all(
        not np.any(np.nan_to_num(np.asarray(data, dtype=np.float64)))
        for data in result.values()
        if np.issubdtype(np.asarray(data).dtype, np.number)
    )


def matches(table, expected: Dict[str, np.ndarray]) -> bool:
    """True when ``table`` equals the oracle (exact ints, close floats)."""
    if table.num_rows != len(next(iter(expected.values()))):
        return False
    for column, want in expected.items():
        if column not in table.column_names:
            return False
        got = table.column(column).data
        if np.issubdtype(np.asarray(want).dtype, np.floating):
            if not np.allclose(got, want, rtol=1e-9, equal_nan=True):
                return False
        elif not np.array_equal(got, want):
            return False
    return True


def catalog_digest(catalog) -> str:
    """SHA-256 over every column's bytes, tables in name order."""
    digest = hashlib.sha256()
    for name in sorted(catalog):
        table = catalog[name]
        for column in table.column_names:
            digest.update(f"{name}.{column}".encode())
            digest.update(np.ascontiguousarray(table.column(column).data))
    return digest.hexdigest()[:16]


# -- one timed round --------------------------------------------------------


@dataclass
class Round:
    """What one timed round did, on both clocks."""

    #: Host seconds of each operation (query, or request completion gap).
    host_s: List[float] = field(default_factory=list)
    #: Simulated ms of each operation (query time, or request latency
    #: from its due time).
    sim_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Simulated event seconds and counts by kind (spans excluded).
    time_by_kind: Dict[str, float] = field(default_factory=dict)
    count_by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_h2d: int = 0
    #: Kernel DRAM bytes, and kernel seconds times device bandwidth.
    kernel_bytes: float = 0.0
    kernel_capacity: float = 0.0
    #: Layer counts (``serve.*``, ``storage.*``, ``hetero.*``).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Simulated-clock detail beyond the metrics (seeded, repeatable).
    details: Dict[str, object] = field(default_factory=dict)
    #: Host ms samples of workload-specific spans, pooled over rounds.
    spans_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: The operation sequence, for the determinism checks.
    sequence: List[tuple] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def add_summary(self, summary) -> None:
        for kind, seconds in summary.time_by_kind.items():
            self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + seconds
        for kind, count in summary.count_by_kind.items():
            self.count_by_kind[kind] = self.count_by_kind.get(kind, 0) + count
        self.bytes_h2d += summary.bytes_h2d

    def add_kernels(self, device, since: int) -> Tuple[float, float]:
        """Fold the device's kernel events since ``since``; returns the
        (bytes, bandwidth-seconds) pair they added."""
        moved = capacity = 0.0
        for event in device.profiler.events_since(since):
            if event.kind == "kernel":
                moved += event.payload.get("bytes", 0.0)
                capacity += event.duration * device.spec.dram_bandwidth
        self.kernel_bytes += moved
        self.kernel_capacity += capacity
        return moved, capacity


def _timed(profile, call: Callable[[], object]):
    """``call()`` under the optional profiler: (result, start, end)."""
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    try:
        result = call()
    finally:
        end = time.perf_counter()
        if profile is not None:
            profile.disable()
    return result, start, end


def _run_query(rnd: Round, spans: Spans, profile, reference: Reference,
               label: str, execute, plan, expected) -> Optional[object]:
    """One checked query operation; returns its report (None on error)."""
    reference.due()
    rnd.attempted += 1
    try:
        result, start, end = _timed(profile, functools.partial(execute, plan))
    except Exception as error:  # counted and reported, run continues
        rnd.failed += 1
        rnd.errors.append(f"{label}: {type(error).__name__}: {error}")
        return None
    spans.add(label, start, end)
    rnd.host_s.append(end - start)
    rnd.sim_ms.append(result.report.simulated_seconds * 1e3)
    rnd.add_summary(result.report.summary)
    if not matches(result.table, expected):
        rnd.failed += 1
        rnd.errors.append(f"{label}: result differs from the oracle")
    return result.report


# -- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    scale_factor: float
    #: Builds per run; ``setup_s`` is their median plus the warm pass.
    builds: int = 3
    #: Requests per round at the headline rate (``serve-mixed``) or in
    #: all (``serve-rw``).
    requests: int = 0
    #: ``serve-mixed`` requests at the other two swept rates.
    sweep_requests: int = 0
    #: 16-query passes per round (``tiered-spill``).
    passes: int = 1
    #: ``serve-rw`` swaps the ``lineitem`` version every this many
    #: completions.
    write_every: int = 100
    device_budget: int = 0
    host_budget: int = 0
    chunk_rows: int = 8192


@dataclass
class State:
    """A workload's set-up: catalog, plans, oracles and runners."""

    seed: int
    size: Size
    catalog: dict
    params: dict
    plans: dict
    expected: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    full: Size
    smoke: Size

    def build(self, seed: int, size: Size, spans: Spans) -> State:
        with spans.span("generate"):
            catalog = TpchGenerator(
                scale_factor=size.scale_factor, seed=CATALOG_SEED
            ).generate()
        params = draw_params(seed)
        state = State(seed, size, catalog, params, prepare(catalog, params, spans))
        with spans.span("load"):
            self.load(state, spans)
        return state

    def load(self, state: State, spans: Spans) -> None:
        raise NotImplementedError

    def warm(self, state: State) -> None:
        raise NotImplementedError

    def compute_oracles(self, state: State) -> None:
        state.expected = oracles(state.catalog, state.params)

    def round(self, state: State, spans: Spans, profile,
              reference: Reference) -> Round:
        raise NotImplementedError


def _gpu(backend: str, allocator: str = "null"):
    return default_framework().create(
        backend, Device(GTX_1080TI, allocator=allocator)
    )


class TpchSuite(Workload):
    name = "tpch-suite"
    why = (
        "The paper's library comparison: 16 TPC-H queries on six backends, "
        "data fits in device memory, host time is mostly NumPy operator work."
    )
    full = Size(scale_factor=0.03)
    smoke = Size(scale_factor=0.004, builds=1)

    def load(self, state, spans):
        runners = {}
        for backend in BACKENDS:
            if backend == "hetero-auto":
                session = GpuSession(_gpu("handwritten"), state.catalog)
                runners[backend] = (
                    session.backend.device,
                    functools.partial(session.execute_hybrid, mode="auto"),
                )
            else:
                executor = QueryExecutor(_gpu(backend), state.catalog)
                runners[backend] = (executor.backend.device, executor.execute)
        state.extra["runners"] = runners

    def warm(self, state):
        for device, execute in state.extra["runners"].values():
            for name in QUERY_NAMES:
                execute(state.plans[name])
            device.profiler.clear()

    def round(self, state, spans, profile, reference):
        rnd = Round()
        rng = np.random.default_rng([state.seed, ORDER_STREAM])
        hetero = {"hetero.cpu_segments": 0, "hetero.gpu_segments": 0,
                  "hetero.staged_bytes": 0.0}
        for backend, (device, execute) in state.extra["runners"].items():
            mark = device.profiler.mark()
            first = len(rnd.host_s)
            with spans.span(backend):
                for position in rng.permutation(len(QUERY_NAMES)):
                    name = QUERY_NAMES[position]
                    rnd.sequence.append((backend, name))
                    report = _run_query(
                        rnd, spans, profile, reference, name, execute,
                        state.plans[name], state.expected[name],
                    )
                    if backend == "hetero-auto" and report is not None:
                        for decision in report.placement.decisions:
                            key = "cpu" if decision.device == CPU else "gpu"
                            hetero[f"hetero.{key}_segments"] += 1
                        hetero["hetero.staged_bytes"] += report.staged_bytes
            moved, capacity = rnd.add_kernels(device, mark)
            device.profiler.clear()
            rnd.details[backend] = {
                "sim_ms": sum(rnd.sim_ms[first:]),
                "roofline_pct": 100.0 * moved / capacity if capacity else 0.0,
            }
            rnd.spans_ms[f"pass_ms.{backend}"] = [1e3 * sum(rnd.host_s[first:])]
        rnd.counters.update(hetero)
        return rnd


class _Replay:
    """Open-loop replay of a fixed request list through ``QueryServer``.

    Records the host time between successive completion callbacks and
    lets a workload act on each completion (``serve-rw`` writes there).
    """

    def __init__(self, requests, reference: Reference, on_each=None) -> None:
        self.requests = requests
        self.reference = reference
        self.on_each = on_each
        self.gaps: List[Tuple[int, float, float]] = []
        self._last = 0.0

    def arrivals(self):
        self._last = time.perf_counter()
        return list(self.requests)

    def on_complete(self, record):
        now = time.perf_counter()
        self.gaps.append((record.seq, self._last, now))
        if self.on_each is not None:
            self.on_each(record)
        # The next gap includes ``on_each`` (a write is work the server
        # caused) but not the reference task.
        self._last = now + self.reference.due()
        return None


def _serve_config(caches: bool) -> ServerConfig:
    return ServerConfig(
        policy="sjf", num_streams=2, plan_cache=caches, result_cache=caches,
        keep_results=True,
    )


class _Serve(Workload):
    """Shared set-up of the two serving workloads."""

    caches = False

    def load(self, state, spans):
        rng = np.random.default_rng([state.seed, MIX_STREAM])
        count = state.size.requests
        # A shuffled deck per 16 requests: the mix is exactly uniform,
        # the seed only decides the order.
        decks = itertools.chain.from_iterable(
            rng.permutation(len(QUERY_NAMES))
            for _ in range(-(-count // len(QUERY_NAMES)))
        )
        state.extra["mix"] = [
            QUERY_NAMES[i] for i in itertools.islice(decks, count)
        ]
        state.extra["unit_arrivals"] = np.cumsum(
            np.random.default_rng(ARRIVAL_SEED).exponential(1.0, count)
        )

    def requests(self, state, rate: float, count: int):
        mix = state.extra["mix"][:count]
        return [
            QueryRequest(
                seq=seq, tenant=f"tenant-{seq % TENANTS}", name=name,
                plan=state.plans[name],
                arrival=float(state.extra["unit_arrivals"][seq] / rate),
            )
            for seq, name in enumerate(mix)
        ]

    def warm(self, state):
        server = QueryServer(_gpu("thrust", "pool"), state.catalog,
                             _serve_config(self.caches))
        server.run(_Replay(
            self.requests(state, HEADLINE_RATE, len(QUERY_NAMES)),
            Reference(every_s=math.inf),
        ))
        server.close()

    def expected_for(self, state, record):
        return state.expected[record.name]

    def serve(self, state, rate, spans, profile, reference, rnd, count,
              on_each=None):
        """One server run of ``count`` requests at ``rate``; checks every
        record against :meth:`expected_for`.  ``on_each(server, record)``
        runs at every completion.  Returns the server, its report and
        the replay."""
        server = QueryServer(_gpu("thrust", "pool"), state.catalog,
                             _serve_config(self.caches))
        requests = self.requests(state, rate, count)
        replay = _Replay(requests, reference, None if on_each is None
                         else functools.partial(on_each, server))
        with spans.span(f"rate {rate:g}"):
            report, _start, _end = _timed(
                profile, functools.partial(server.run, replay)
            )
            for seq, start, end in replay.gaps:
                spans.add(f"request#{seq}", start, end)
        server.close()
        rnd.host_s.extend(end - start for _seq, start, end in replay.gaps)
        rnd.attempted += len(requests)
        for record in report.records:
            if not record.completed:
                problem = record.status
            elif not matches(record.table, self.expected_for(state, record)):
                problem = "result differs from the oracle"
            else:
                continue
            rnd.failed += 1
            rnd.errors.append(f"request#{record.seq} {record.name}: {problem}")
        return server, report, replay

    def serve_counters(self, report) -> Dict[str, float]:
        metrics = report.metrics
        capacity = len(report.stream_busy) * metrics.makespan
        return {
            "serve.queue_wait_pct": (
                100.0 * metrics.mean_queue_wait / metrics.mean_latency
                if metrics.mean_latency else 0.0
            ),
            "serve.stream_busy_pct": (
                100.0 * sum(report.stream_busy) / capacity if capacity else 0.0
            ),
            "serve.shed": metrics.shed,
            "serve.result_cache_hit_pct": 100.0 * metrics.result_cache_hit_rate,
            "serve.plan_cache_hit_pct": 100.0 * metrics.plan_cache_hit_rate,
            "serve.invalidations": metrics.result_cache_invalidations,
        }

    def add_device(self, rnd, server) -> None:
        rnd.add_summary(server.device.profiler.summary())
        rnd.add_kernels(server.device, 0)


class ServeMixed(_Serve):
    name = "serve-mixed"
    why = (
        "Many tiny queries per second on one pooled device, caches off: "
        "per-operator pricing and profiler bookkeeping dominate host time."
    )
    # The headline rate gets the most requests: its p90 is a reported
    # metric and must be steady from seed to seed.
    full = Size(scale_factor=0.004, requests=400, sweep_requests=80)
    smoke = Size(scale_factor=0.004, builds=1, requests=24, sweep_requests=12)

    def round(self, state, spans, profile, reference):
        rnd = Round()
        sweep = {}
        for rate in RATES:
            count = (state.size.requests if rate == HEADLINE_RATE
                     else state.size.sweep_requests)
            server, report, _replay = self.serve(
                state, rate, spans, profile, reference, rnd, count
            )
            latencies = [r.latency * 1e3 for r in report.records if r.completed]
            sweep[f"{rate:g}"] = {
                "sim_p50_ms": nearest_rank(latencies, 0.50),
                "sim_p95_ms": nearest_rank(latencies, 0.95),
                "sim_rps": report.metrics.throughput,
                "shed": report.metrics.shed,
            }
            if rate == HEADLINE_RATE:
                rnd.sim_ms = latencies
                rnd.sequence = [
                    (r.seq, r.tenant, r.name, r.arrival) for r in report.records
                ]
                rnd.counters.update(self.serve_counters(report))
                self.add_device(rnd, server)
        meets = [
            float(rate) for rate, point in sweep.items()
            if point["sim_p95_ms"] <= SLO_P95_MS
            and point["sim_rps"] >= SLO_MIN_THROUGHPUT * float(rate)
        ]
        rnd.details["sweep"] = sweep
        rnd.details["sim_slo_rps"] = max(meets, default=0.0)
        return rnd


class ServeReadWrite(_Serve):
    name = "serve-rw"
    why = (
        "Same server with plan and result caches on and a lineitem swap "
        "every 100 completions: most reads hit, writes invalidate and evict."
    )
    caches = True
    full = Size(scale_factor=0.004, requests=1200, write_every=100)
    smoke = Size(scale_factor=0.004, builds=1, requests=96, write_every=32)

    def build(self, seed, size, spans):
        state = super().build(seed, size, spans)
        with spans.span("generate"):
            state.extra["lineitem_v2"] = TpchGenerator(
                scale_factor=size.scale_factor, seed=LINEITEM_V2_SEED
            ).lineitem(state.catalog["orders"], state.catalog["part"])
        return state

    def compute_oracles(self, state):
        super().compute_oracles(state)
        second = dict(state.catalog, lineitem=state.extra["lineitem_v2"])
        state.extra["expected_by_version"] = (
            state.expected, oracles(second, state.params)
        )

    def expected_for(self, state, record):
        version = state.extra["dispatch_version"][record.seq]
        return state.extra["expected_by_version"][version][record.name]

    def round(self, state, spans, profile, reference):
        rnd = Round()
        lineitems = (state.catalog["lineitem"], state.extra["lineitem_v2"])
        live = [0]
        dispatched = state.extra["dispatch_version"] = {}
        writes: List[float] = []

        def on_each(server, record):
            # Records complete in dispatch order and writes happen only
            # here, so the live version is the one the request ran on.
            dispatched[record.seq] = live[0]
            if len(dispatched) % state.size.write_every == 0:
                live[0] ^= 1
                start = time.perf_counter()
                with spans.span("update_table"):
                    server.update_table("lineitem", lineitems[live[0]])
                writes.append(time.perf_counter() - start)

        server, report, replay = self.serve(
            state, HEADLINE_RATE, spans, profile, reference, rnd,
            state.size.requests, on_each=on_each,
        )
        rnd.sim_ms = [r.latency * 1e3 for r in report.records if r.completed]
        rnd.sequence = [
            (r.seq, r.tenant, r.name, r.arrival, dispatched[r.seq])
            for r in report.records
        ]
        rnd.counters.update(self.serve_counters(report))
        self.add_device(rnd, server)
        hits = {r.seq for r in report.records if r.result_cache_hit}
        for seq, start, end in replay.gaps:
            kind = "hit" if seq in hits else "miss"
            rnd.spans_ms.setdefault(f"request_ms.{kind}", []).append(
                1e3 * (end - start)
            )
        rnd.spans_ms["update_table_ms"] = [1e3 * write for write in writes]
        rnd.details["result_cache_misses"] = len(report.records) - len(hits)
        return rnd


class TieredSpill(Workload):
    name = "tiered-spill"
    why = (
        "16 queries over a compressed tiered store whose device tier holds "
        "a quarter of the working set: storage codecs and NVMe reads run."
    )
    full = Size(
        scale_factor=0.02, passes=6,
        device_budget=768 * 1024, host_budget=1536 * 1024, chunk_rows=8192,
    )
    smoke = Size(
        scale_factor=0.004, builds=1, passes=1,
        device_budget=64 * 1024, host_budget=96 * 1024, chunk_rows=1024,
    )

    def load(self, state, spans):
        device = Device(GTX_1080TI)
        store = TieredColumnStore(
            device, device_budget=state.size.device_budget,
            host_budget=state.size.host_budget,
            chunk_rows=state.size.chunk_rows,
        )
        with spans.span("ingest"):
            for name in sorted(state.catalog):
                store.ingest_table(state.catalog[name])
        state.extra["store"] = store
        state.extra["executor"] = QueryExecutor(
            default_framework().create("handwritten", device),
            state.catalog, store=store,
        )

    def warm(self, state):
        executor = state.extra["executor"]
        for name in QUERY_NAMES:
            executor.execute(state.plans[name])
        executor.backend.device.profiler.clear()

    def round(self, state, spans, profile, reference):
        rnd = Round()
        executor = state.extra["executor"]
        store = state.extra["store"]
        device = executor.backend.device
        rng = np.random.default_rng([state.seed, ORDER_STREAM])
        # snapshot_stats() returns the live counters: copy them.
        before = replace(store.snapshot_stats())
        for number in range(state.size.passes):
            first = len(rnd.host_s)
            with spans.span(f"pass {number}"):
                for position in rng.permutation(len(QUERY_NAMES)):
                    name = QUERY_NAMES[position]
                    rnd.sequence.append((number, name))
                    _run_query(
                        rnd, spans, profile, reference, name,
                        executor.execute, state.plans[name],
                        state.expected[name],
                    )
            rnd.spans_ms.setdefault("pass_ms.handwritten", []).append(
                1e3 * sum(rnd.host_s[first:])
            )
        rnd.add_kernels(device, 0)
        device.profiler.clear()
        after = store.snapshot_stats()

        def delta(counter):
            return getattr(after, counter) - getattr(before, counter)

        compressed = delta("promoted_compressed_bytes")
        rnd.counters.update({
            "storage.promotes": delta("promotes"),
            "storage.spills": delta("spills"),
            "storage.nvme_read_bytes": delta("nvme_read_bytes"),
            "storage.decoded_bytes": delta("decoded_bytes"),
            "storage.bandwidth_gain": (
                delta("promoted_raw_bytes") / compressed if compressed else 0.0
            ),
        })
        return rnd


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (TpchSuite(), ServeMixed(), ServeReadWrite(), TieredSpill())
}
