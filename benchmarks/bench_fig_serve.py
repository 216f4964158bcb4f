"""Fig. serve (new) — multi-query serving: policy and cache ablations.

Two experiments on the ``repro.serve`` layer, both bit-deterministic
(seeded workloads on the simulated clock):

* **policy sweep** — an open-loop Poisson stream of mostly-cheap Q6
  lookups salted with rare expensive Q5 joins (~0.5% of requests, ~6x
  the service time), swept across arrival rates on a single-stream
  server with caches off.  Below saturation the scheduling policy is
  irrelevant; near saturation FIFO's head-of-line blocking inflates the
  cheap majority's tail while shortest-job-first defers the rare long
  queries, so SJF's p99 must come out below FIFO's at the top rate
  (asserted).
* **cache ablation** — a repeated-query workload (two shapes cycled 100
  times) with the plan+result caches on vs off.  Warm hits skip planning
  and all device work, so cached throughput must be >= 2x the uncached
  run (asserted; the measured ratio is ~3x).

Run directly with ``--smoke`` for the CI smoke job: a tiny closed-loop
run that writes its metrics JSON, with the floor rows it enforces, to
``benchmarks/out/fig_serve_smoke.json``.
"""


from common import finish_smoke, out_dir, smoke_main
from repro.bench import write_report
from repro.core import default_framework
from repro.gpu import GTX_1080TI, Device
from repro.serve import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    QueryServer,
    QuerySpec,
    ServerConfig,
    metrics_report,
    repeated_workload,
)
from repro.tpch import TpchGenerator
from repro.tpch.queries import q1, q5, q6

#: Catalog scale: big enough that Q5 >> Q6, small enough to stay fast.
SCALE_FACTOR = 0.004
CATALOG_SEED = 2021
WORKLOAD_SEED = 31

#: Arrival rates swept (requests per simulated second).  Cheap-query
#: service capacity is ~4.8k req/s, so the last point sits just above
#: saturation — the regime where scheduling policy decides the tail.
ARRIVAL_RATES = (2000.0, 4000.0, 5000.0)
NUM_REQUESTS = 400
#: Expensive-query fraction: ~2 of 400 requests, safely under 1% so the
#: p99 rank lands on the cheap majority, not the long queries themselves.
EXPENSIVE_WEIGHT = 0.005

POLICIES = ("fifo", "sjf")


def _catalog():
    return TpchGenerator(
        scale_factor=SCALE_FACTOR, seed=CATALOG_SEED
    ).generate()


def _mixed_specs(catalog):
    return [
        QuerySpec("Q6", q6.plan(), weight=1.0 - EXPENSIVE_WEIGHT),
        QuerySpec("Q5", q5.plan(catalog), weight=EXPENSIVE_WEIGHT),
    ]


def _serve(catalog, workload, **config_kwargs):
    device = Device(GTX_1080TI, allocator="pool")
    backend = default_framework().create("thrust", device)
    with QueryServer(backend, catalog, ServerConfig(**config_kwargs)) as server:
        return server.run(workload)


def test_fig_serve_policy_sweep(benchmark):
    catalog = _catalog()
    specs = _mixed_specs(catalog)

    def sweep():
        rows = {}
        for rate in ARRIVAL_RATES:
            workload = OpenLoopWorkload(
                specs, rate=rate, num_requests=NUM_REQUESTS,
                tenants=("t0", "t1"), seed=WORKLOAD_SEED,
            )
            expensive = sum(
                1 for r in workload.arrivals() if r.name == "Q5"
            )
            rows[rate] = (expensive, {
                policy: _serve(
                    catalog, workload, policy=policy, num_streams=1,
                    plan_cache=False, result_cache=False,
                ).metrics
                for policy in POLICIES
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)

    lines = [
        "== Fig. serve-policy: FIFO vs SJF under a mostly-cheap mix "
        f"(Q6 + {EXPENSIVE_WEIGHT:.1%} Q5, {NUM_REQUESTS} requests, "
        "1 stream, caches off, thrust) ==",
        f"{'rate/s':>8}  {'#Q5':>4}  "
        + "  ".join(
            f"{p + ' thr/s':>10}  {p + ' p50ms':>10}  {p + ' p99ms':>10}"
            for p in POLICIES
        ),
    ]
    for rate, (expensive, by_policy) in rows.items():
        cells = []
        for policy in POLICIES:
            m = by_policy[policy]
            cells.append(
                f"{m.throughput:10.0f}  {m.p50_latency * 1e3:10.3f}  "
                f"{m.p99_latency * 1e3:10.3f}"
            )
        lines.append(f"{rate:8.0f}  {expensive:4d}  " + "  ".join(cells))

    top = rows[ARRIVAL_RATES[-1]]
    expensive, by_policy = top
    fifo_p99 = by_policy["fifo"].p99_latency
    sjf_p99 = by_policy["sjf"].p99_latency
    lines.append(
        f"-- at {ARRIVAL_RATES[-1]:.0f} req/s: SJF p99 "
        f"{sjf_p99 * 1e3:.3f} ms vs FIFO p99 {fifo_p99 * 1e3:.3f} ms "
        f"({fifo_p99 / sjf_p99:.2f}x better tail) --"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_serve_policies", text, directory=out_dir())

    # The seeded mix must keep expensive queries under the p99 rank.
    assert 1 <= expensive <= 4, expensive
    # Acceptance: SJF beats FIFO on p99 at the highest arrival rate.
    assert sjf_p99 < fifo_p99, (sjf_p99, fifo_p99)
    # Everything completes (no shedding at default budgets).
    assert all(
        m.completed == NUM_REQUESTS
        for _n, by in rows.values() for m in by.values()
    )


#: Cache ablation: two query shapes cycled this many times each.
CACHE_REPEATS = 100
CACHE_RATE = 5000.0


def test_fig_serve_cache_ablation(benchmark):
    catalog = _catalog()
    specs = [QuerySpec("Q6", q6.plan()), QuerySpec("Q1", q1.plan())]

    def ablate():
        results = {}
        for label, cache in (("cache on", True), ("cache off", False)):
            workload = repeated_workload(
                specs, rate=CACHE_RATE, repeats=CACHE_REPEATS, seed=17
            )
            results[label] = _serve(
                catalog, workload, policy="fifo", num_streams=2,
                plan_cache=cache, result_cache=cache,
            ).metrics
        return results

    results = benchmark.pedantic(
        ablate, rounds=1, iterations=1, warmup_rounds=0
    )
    on, off = results["cache on"], results["cache off"]
    speedup = on.throughput / off.throughput
    lines = [
        "== Fig. serve-cache: plan+result caches on a repeated-query "
        f"workload (2 shapes x {CACHE_REPEATS}, {CACHE_RATE:.0f} req/s, "
        "thrust) ==",
        f"{'config':>10}  {'thr/s':>8}  {'p50 ms':>8}  {'p99 ms':>8}  "
        f"{'hits':>5}  {'misses':>7}",
    ]
    for label, m in results.items():
        lines.append(
            f"{label:>10}  {m.throughput:8.0f}  "
            f"{m.p50_latency * 1e3:8.3f}  {m.p99_latency * 1e3:8.3f}  "
            f"{m.result_cache_hits:5d}  {m.result_cache_misses:7d}"
        )
    lines.append(
        f"-- result cache speedup: {speedup:.2f}x throughput "
        f"({on.result_cache_hit_rate:.0%} hit rate) --"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_serve_cache", text, directory=out_dir())

    # Acceptance: >= 2x throughput from the cache on repeated queries.
    assert speedup >= 2.0, speedup
    assert on.result_cache_misses == 2
    assert on.result_cache_hits == 2 * CACHE_REPEATS - 2


def _floors(payload):
    """Smoke load is light: every offered request completes, none shed."""
    metrics = payload["metrics"]
    return [
        (
            "requests recorded", metrics["total_requests"], "==",
            payload["offered_requests"],
        ),
        (
            "completed requests", metrics["completed"], "==",
            metrics["total_requests"],
        ),
        ("shed requests", metrics["shed"], "==", 0),
        ("nonzero throughput", metrics["throughput_qps"] > 0.0, "==", True),
    ]


def _smoke(clients: int, requests: int) -> int:
    """CI smoke: a tiny closed-loop run, floors enforced."""
    catalog = TpchGenerator(scale_factor=0.002, seed=CATALOG_SEED).generate()
    workload = ClosedLoopWorkload(
        [QuerySpec("Q6", q6.plan()), QuerySpec("Q1", q1.plan())],
        num_clients=clients, requests_per_client=requests, seed=7,
    )
    device = Device(GTX_1080TI, allocator="pool")
    backend = default_framework().create("thrust", device)
    config = ServerConfig(policy="sjf", num_streams=2)
    with QueryServer(backend, catalog, config) as server:
        report = server.run(workload)
    metrics = report.metrics
    payload = {
        "offered_requests": clients * requests,
        **metrics_report(metrics, report.records),
    }
    print(
        f"serve smoke: {metrics.completed} requests, "
        f"{metrics.throughput:.0f} req/s, "
        f"p99 {metrics.p99_latency * 1e3:.3f} ms"
    )
    return finish_smoke("fig_serve_smoke.json", payload, _floors(payload))


if __name__ == "__main__":
    smoke_main(
        lambda args: _smoke(args.clients, args.requests),
        doc=__doc__,
        add_args=lambda parser: [
            parser.add_argument("--clients", type=int, default=2),
            parser.add_argument("--requests", type=int, default=8),
        ],
    )
