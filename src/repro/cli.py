"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables`` — print Table I (survey) and Table II (support matrix);
* ``operators`` — run one operator sweep across backends;
* ``calibration`` — print the cost-model calibration report;
* ``tpch`` — run one TPC-H query on every backend and compare;
* ``serve`` — replay a multi-tenant query stream through the serving
  layer and report throughput / latency percentiles / cache hit rates.
  Serving scales by nodes: ``--nodes N`` serves on a replicated
  cluster of one-device nodes instead (``--replicas`` copies per shard,
  ``--kill-node-at`` arms a mid-run node death to demonstrate failover).
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.bench import render_all, render_calibration_report, run_simple_sweep
from repro.core import STUDIED_LIBRARIES, default_framework, render_table_ii
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.survey import render_category_histogram, render_table_i
from repro.tpch import ALL_QUERIES, TpchGenerator

DEFAULT_BACKENDS = ("arrayfire", "boost.compute", "thrust", "handwritten")


def _cmd_tables(_args: argparse.Namespace) -> int:
    print(render_table_i())
    print()
    print(render_category_histogram())
    print()
    framework = default_framework()
    backends = [framework.create(name) for name in STUDIED_LIBRARIES]
    print(render_table_ii(backends))
    return 0


def _operator_sweep(op: str, sizes: List[int]):
    from repro.bench import (
        grouped_keys,
        selection_workload,
        uniform_floats,
        uniform_ints,
    )
    from repro.core import col_lt

    if op == "selection":
        def setup(backend, n):
            workload = selection_workload(n, 0.1)
            return backend.upload(workload.data), workload.threshold

        def run(backend, state):
            backend.selection({"x": state[0]}, col_lt("x", state[1]))
    elif op == "groupby":
        def setup(backend, n):
            keys, values = grouped_keys(n, groups=1024)
            return backend.upload(keys), backend.upload(values)

        def run(backend, state):
            backend.grouped_aggregation(state[0], state[1], "sum")
    elif op == "sort":
        def setup(backend, n):
            return backend.upload(uniform_ints(n))

        def run(backend, handle):
            backend.sort(handle)
    elif op == "reduction":
        def setup(backend, n):
            return backend.upload(uniform_floats(n))

        def run(backend, handle):
            backend.reduction(handle, "sum")
    else:
        raise SystemExit(f"unknown operator {op!r}")
    return run_simple_sweep(
        f"{op} sweep", DEFAULT_BACKENDS, sizes, setup, run
    )


def _cmd_operators(args: argparse.Namespace) -> int:
    sizes = [1 << e for e in args.log2_sizes]
    result = _operator_sweep(args.op, sizes)
    print(render_all(result, baseline="handwritten"))
    return 0


def _cmd_calibration(_args: argparse.Namespace) -> int:
    from repro.gpu import PRESETS

    print("\n\n".join(
        render_calibration_report(spec) for spec in PRESETS.values()
    ))
    return 0


_MEM_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_mem_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix ("256M", "4g")."""
    raw = text.strip().lower().rstrip("b")
    multiplier = 1
    if raw and raw[-1] in _MEM_SUFFIXES:
        multiplier = _MEM_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse memory size {text!r} (examples: 512K, 64M, 2G)"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(f"memory size must be positive: {text!r}")
    return int(value * multiplier)


def _device_spec(args: argparse.Namespace):
    """The device spec honouring --device-mem."""
    import dataclasses

    from repro.gpu import GTX_1080TI

    if args.device_mem is None:
        return GTX_1080TI
    return dataclasses.replace(GTX_1080TI, memory_bytes=args.device_mem)


def _make_device(args: argparse.Namespace) -> Device:
    """A device honouring the --pool / --device-mem flags."""
    return Device(_device_spec(args), allocator="pool" if args.pool else "null")


def _make_group(args: argparse.Namespace):
    """A device group honouring --devices / --interconnect / --pool."""
    from repro.gpu import NVLINK_P2P, PCIE_HOST_BRIDGE, DeviceGroup

    interconnect = (
        NVLINK_P2P if args.interconnect == "nvlink" else PCIE_HOST_BRIDGE
    )
    return DeviceGroup.of_size(
        args.devices,
        _device_spec(args),
        interconnect=interconnect,
        allocator="pool" if args.pool else "null",
    )


def _make_store(args: argparse.Namespace, device: Device, catalog):
    """A tiered compressed store over the catalog when --tiered is set."""
    if not getattr(args, "tiered", False):
        return None
    from repro.storage import TieredColumnStore

    store = TieredColumnStore(
        device, device_budget=getattr(args, "store_budget", None)
    )
    for name, table in sorted(catalog.items()):
        for column_name in table.column_names:
            store.ingest_column(
                name, column_name, table.column(column_name).data
            )
    return store


def _store_summary(store) -> str:
    """One summary line of a run's tiered-store statistics."""
    stats = store.snapshot_stats()
    return (
        f"store: ratio {stats.compression_ratio:.2f}x | "
        f"{stats.promotes} promotes, {stats.spills} spills, "
        f"{stats.nvme_reads + stats.nvme_writes} NVMe ops | "
        f"bandwidth gain {stats.effective_bandwidth_gain:.2f}x"
    )


def _tpch_backends(args: argparse.Namespace) -> tuple:
    """Backend list for the tpch command: ``--backend a,b`` or defaults."""
    raw = getattr(args, "backend", None)
    if not raw:
        return DEFAULT_BACKENDS
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _tpch_distributed(args: argparse.Namespace, catalog, plan) -> int:
    """Partition-parallel tpch run: one device group per backend."""
    from repro.distributed import DistributedExecutor

    backends = _tpch_backends(args)
    framework = default_framework()
    print(
        f"\n{'backend':>16}  {'cold ms':>10}  {'warm ms':>10}  "
        f"{'strategy':>18}  {'rows':>6}"
    )
    trace_group = None
    for name in backends:
        group = _make_group(args)
        executor = DistributedExecutor(
            group,
            name,
            catalog,
            args.partition,
            framework=framework,
            scan_chunks=args.chunks,
        )
        cold = executor.execute(plan)
        warm = executor.execute(plan)
        if args.trace is not None and name == args.trace_backend:
            trace_group = group
        report = warm.report
        note = ""
        if report.strategy == "single_device" and report.reason:
            note = f"  [fallback: {report.reason}]"
        elif report.exchange_bytes:
            note = f"  [reshard {report.exchange_bytes >> 10} KiB]"
        print(
            f"{name:>16}  {cold.report.simulated_ms:10.3f}  "
            f"{report.simulated_ms:10.3f}  "
            f"{report.strategy:>18}  "
            f"{warm.table.num_rows:6d}{note}"
        )
    if args.trace is not None:
        from repro.distributed import write_group_chrome_trace

        if trace_group is None:
            known = ", ".join(backends)
            raise SystemExit(
                f"unknown trace backend {args.trace_backend!r}; known: {known}"
            )
        write_group_chrome_trace(args.trace, trace_group)
        events = sum(len(d.profiler.events) for d in trace_group)
        print(
            f"\nwrote {events} events across {len(trace_group)} device "
            f"rows to {args.trace} (open at chrome://tracing or "
            "ui.perfetto.dev)"
        )
    return 0


def _cmd_tpch(args: argparse.Namespace) -> int:
    module = None
    if args.sql is None:
        query_name = args.query.upper()
        try:
            module = ALL_QUERIES[query_name]
        except KeyError:
            known = ", ".join(sorted(ALL_QUERIES))
            raise SystemExit(f"unknown query {args.query!r}; known: {known}")
    print(f"Generating TPC-H data (scale factor {args.scale_factor})...")
    catalog = TpchGenerator(scale_factor=args.scale_factor).generate()
    if args.sql is not None:
        from repro.sql import SqlError, sql_to_plan

        try:
            plan = sql_to_plan(args.sql, catalog)
        except SqlError as error:
            raise SystemExit(f"SQL error: {error}")
    else:
        # Catalog-aware plans (SQL-frontend queries, Q3/Q5/Q10) need the
        # generated tables for dictionary codes and schema lookups.
        import inspect

        if "catalog" in inspect.signature(module.plan).parameters:
            plan = module.plan(catalog)
        else:
            plan = module.plan()
    if args.devices > 1:
        if args.tiered:
            raise SystemExit("--tiered runs on a single device (--devices 1)")
        return _tpch_distributed(args, catalog, plan)
    backends = _tpch_backends(args)
    framework = default_framework()
    print(
        f"\n{'backend':>16}  {'cold ms':>10}  {'warm ms':>10}  "
        f"{'kernels':>8}  {'rows':>6}"
    )
    trace_device = None
    for name in backends:
        device = _make_device(args)
        store = _make_store(args, device, catalog)
        executor = QueryExecutor(
            framework.create(name, device),
            catalog,
            scan_chunks=args.chunks,
            store=store,
        )
        cold = executor.execute(plan)
        warm = executor.execute(plan)
        if args.trace is not None and name == args.trace_backend:
            trace_device = device
        recovered = cold.report.oom_recovery_chunks
        note = f"  [oom: retried in {recovered} chunks]" if recovered else ""
        print(
            f"{name:>16}  {cold.report.simulated_ms:10.3f}  "
            f"{warm.report.simulated_ms:10.3f}  "
            f"{warm.report.summary.kernel_count:8d}  "
            f"{warm.table.num_rows:6d}{note}"
        )
        if store is not None:
            print(f"{'':>16}  {_store_summary(store)}")
            store.close()
        if args.pool:
            print(f"{'':>16}  {device.pool.stats()}")
    if args.trace is not None:
        from repro.gpu import write_chrome_trace

        if trace_device is None:
            known = ", ".join(backends)
            raise SystemExit(
                f"unknown trace backend {args.trace_backend!r}; known: {known}"
            )
        write_chrome_trace(args.trace, trace_device.profiler.events)
        print(
            f"\nwrote {len(trace_device.profiler.events)} events to "
            f"{args.trace} (open at chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def _query_specs(names: Sequence[str], catalog) -> list:
    """Resolve query names ("Q6,Q1") into serving QuerySpecs."""
    import inspect

    from repro.serve import QuerySpec

    specs = []
    for raw in names:
        name = raw.strip().upper()
        try:
            module = ALL_QUERIES[name]
        except KeyError:
            known = ", ".join(sorted(ALL_QUERIES))
            raise SystemExit(f"unknown query {raw!r}; known: {known}")
        if "catalog" in inspect.signature(module.plan).parameters:
            plan = module.plan(catalog)
        else:
            plan = module.plan()
        specs.append(QuerySpec(name, plan))
    return specs


def _serve_cluster(args: argparse.Namespace, catalog, workload) -> int:
    """Serve the workload on a replicated multi-node cluster."""
    from repro.cluster import Cluster, ClusterConfig, ClusterServer
    from repro.serve import format_metrics, metrics_report

    config = ClusterConfig(
        policy=args.policy,
        num_streams=args.streams,
        plan_cache=args.cache in ("both", "plan"),
        result_cache=args.cache in ("both", "result"),
        admission_budget_bytes=args.admission_budget,
    )
    cluster = Cluster(
        args.nodes, catalog, args.backend,
        allocator="pool" if args.pool else "null",
        device_spec=_device_spec(args), replication=args.replicas,
    )
    if args.kill_node_at is not None:
        cluster.fail_node_at(0, args.kill_node_at)
        print(
            f"armed node 0 death at t={args.kill_node_at * 1e3:.3f} ms "
            "(queries fail over to surviving replicas)"
        )
    with ClusterServer(cluster, config) as server:
        report = server.run(workload)
    print()
    for line in format_metrics(report.metrics):
        print(line)
    print(
        "node placement     "
        + " | ".join(
            f"node{i}: {count} reqs"
            for i, count in enumerate(report.node_requests)
        )
    )
    if report.dead_nodes:
        print(
            f"failover           dead nodes {report.dead_nodes}, "
            f"{report.failovers} failovers, "
            f"{len(report.unreported)} unreported"
        )
    if report.fetch_bytes:
        print(
            f"network            {report.fetch_bytes} shard bytes fetched "
            f"in {report.fetch_seconds * 1e3:.3f} ms"
        )
    if args.json is not None:
        import json

        payload = metrics_report(report.metrics, report.records)
        payload["cluster"] = {
            "nodes": args.nodes,
            "replicas": args.replicas,
            "node_requests": report.node_requests,
            "active_nodes": report.active_nodes,
            "dead_nodes": report.dead_nodes,
            "failovers": report.failovers,
            "unreported": report.unreported,
            "fetch_s": report.fetch_seconds,
            "fetch_bytes": report.fetch_bytes,
            "timeline": report.timeline,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote metrics to {args.json}")
    if args.trace is not None:
        from repro.distributed import write_group_chrome_trace
        from repro.gpu import DeviceGroup

        leads = DeviceGroup([node.lead for node in cluster.nodes])
        write_group_chrome_trace(args.trace, leads)
        events = sum(len(lead.profiler.events) for lead in leads)
        print(
            f"wrote {events} events across {len(leads)} node rows to "
            f"{args.trace} (open at chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        ClosedLoopWorkload,
        OpenLoopWorkload,
        QueryServer,
        ServerConfig,
        format_metrics,
        metrics_report,
    )

    print(f"Generating TPC-H data (scale factor {args.scale_factor})...")
    catalog = TpchGenerator(scale_factor=args.scale_factor).generate()
    specs = _query_specs(args.queries.split(","), catalog)
    if args.sql is not None:
        from repro.serve import QuerySpec
        from repro.sql import SqlError, sql_to_plan

        try:
            specs.append(QuerySpec("ADHOC", sql_to_plan(args.sql, catalog)))
        except SqlError as error:
            raise SystemExit(f"SQL error: {error}")
        print("ad-hoc SQL added to the mix as 'ADHOC'")
    if args.clients is not None:
        workload = ClosedLoopWorkload(
            specs,
            num_clients=args.clients,
            requests_per_client=args.requests,
            think_seconds=args.think,
            seed=args.seed,
        )
        regime = f"closed loop, {args.clients} clients"
    else:
        workload = OpenLoopWorkload(
            specs,
            rate=args.arrival_rate,
            num_requests=args.requests,
            tenants=tuple(f"tenant-{i}" for i in range(args.tenants)),
            seed=args.seed,
        )
        regime = f"open loop, {args.arrival_rate:g} req/s"
    config = ServerConfig(
        policy=args.policy,
        num_streams=args.streams,
        plan_cache=args.cache in ("both", "plan"),
        result_cache=args.cache in ("both", "result"),
        admission_budget_bytes=args.admission_budget,
        shed_to_cpu=args.shed_to_cpu,
    )
    print(
        f"Serving {workload.num_requests} requests "
        f"({regime}; policy={args.policy}, streams={args.streams}, "
        f"cache={args.cache}, backend={args.backend})"
    )
    if args.nodes > 0:
        if args.tiered:
            raise SystemExit("--tiered runs on a single device (--nodes 0)")
        if args.shed_to_cpu:
            raise SystemExit(
                "--shed-to-cpu runs on a single device (--nodes 0)"
            )
        if args.kill_node_at is not None and args.nodes < 2:
            raise SystemExit(
                "--kill-node-at needs surviving replicas (--nodes >= 2)"
            )
        return _serve_cluster(args, catalog, workload)
    if args.kill_node_at is not None:
        raise SystemExit("--kill-node-at requires cluster mode (--nodes)")
    device = _make_device(args)
    backend = default_framework().create(args.backend, device)
    config.store = _make_store(args, device, catalog)
    with QueryServer(backend, catalog, config) as server:
        report = server.run(workload)
    print()
    for line in format_metrics(report.metrics):
        print(line)
    print(
        "stream dispatches  "
        + " | ".join(
            f"{stream.name}: {count}"
            for stream, count in zip(
                server.pool.streams, report.stream_dispatches
            )
        )
    )
    if config.store is not None:
        print(f"storage            {_store_summary(config.store)}")
    if args.json is not None:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                metrics_report(
                    report.metrics, report.records, storage=report.storage
                ),
                handle, indent=1,
            )
            handle.write("\n")
        print(f"wrote metrics to {args.json}")
    if args.trace is not None:
        from repro.gpu import write_chrome_trace

        write_chrome_trace(args.trace, device.profiler.events)
        print(
            f"wrote {len(device.profiler.events)} events to {args.trace} "
            f"(open at chrome://tracing or ui.perfetto.dev)"
        )
    if config.store is not None:
        config.store.close()
    return 0


def _add_store_flags(command: argparse.ArgumentParser) -> None:
    """Register the tiered-storage flags shared by tpch and serve."""
    command.add_argument(
        "--tiered",
        action="store_true",
        help="scan through a compressed tiered column store "
        "(device/host/NVMe) instead of raw host uploads",
    )
    command.add_argument(
        "--store-budget",
        type=parse_mem_size,
        default=None,
        metavar="SIZE",
        help="device-tier cap on the store's resident compressed bytes "
        "(e.g. 256K); exceeding it spills cold chunks down-tier",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Analysis of GPU-Libraries for Rapid "
            "Prototyping Database Operations' (ICDE 2021) on a simulated GPU"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tables = commands.add_parser(
        "tables", help="print Table I and Table II"
    )
    tables.set_defaults(handler=_cmd_tables)

    operators = commands.add_parser(
        "operators", help="run one operator sweep across backends"
    )
    operators.add_argument(
        "--op",
        choices=("selection", "groupby", "sort", "reduction"),
        default="selection",
    )
    operators.add_argument(
        "--log2-sizes",
        type=int,
        nargs="+",
        default=[16, 19, 22],
        help="input sizes as powers of two",
    )
    operators.set_defaults(handler=_cmd_operators)

    calibration = commands.add_parser(
        "calibration", help="print the cost-model calibration report"
    )
    calibration.set_defaults(handler=_cmd_calibration)

    tpch = commands.add_parser(
        "tpch", help="run one TPC-H query on every backend"
    )
    tpch.add_argument("--query", default="Q6",
                      help="one of " + ", ".join(sorted(ALL_QUERIES)))
    tpch.add_argument(
        "--sql",
        metavar="QUERY",
        default=None,
        help="run ad-hoc SQL text through the frontend instead of a "
        "named query (e.g. \"SELECT COUNT(*) AS n FROM orders\")",
    )
    tpch.add_argument("--scale-factor", type=float, default=0.01)
    tpch.add_argument(
        "--backend",
        default=None,
        metavar="NAMES",
        help="comma-separated backends to run (e.g. 'compiled,handwritten'; "
        "default: " + ",".join(DEFAULT_BACKENDS) + ")",
    )
    tpch.add_argument(
        "--chunks",
        type=int,
        default=None,
        help="chunked scan mode: split eligible scans into N chunks "
        "pipelined over streams (default: whole-table scans)",
    )
    tpch.add_argument(
        "--pool",
        action="store_true",
        help="run every backend's device with the pooling sub-allocator "
        "(priced cudaMalloc on miss, near-free reuse on hit)",
    )
    tpch.add_argument(
        "--device-mem",
        type=parse_mem_size,
        default=None,
        metavar="SIZE",
        help="override device memory capacity (e.g. 512K, 64M, 2G); "
        "undersized devices exercise eviction and chunked OOM recovery",
    )
    tpch.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome-trace JSON of one backend's simulated "
        "timeline (view at chrome://tracing)",
    )
    tpch.add_argument(
        "--trace-backend",
        default="thrust",
        help="which backend's timeline --trace captures",
    )
    tpch.add_argument(
        "--devices",
        type=int,
        default=1,
        help="simulated GPU count; >1 runs the query partition-parallel "
        "on a device group (serving scales by nodes: serve --nodes)",
    )
    tpch.add_argument(
        "--partition",
        default="round_robin",
        metavar="SPEC",
        help="how the largest (or named-column) table is sharded across "
        "devices: hash:<col>, range:<col>, or round_robin",
    )
    tpch.add_argument(
        "--interconnect",
        choices=("nvlink", "pcie"),
        default="nvlink",
        help="peer link model: nvlink = direct P2P DMA, pcie = two-leg "
        "host bounce over the PCIe root complex",
    )
    _add_store_flags(tpch)
    tpch.set_defaults(handler=_cmd_tpch)

    serve = commands.add_parser(
        "serve",
        help="replay a multi-tenant query stream through the serving layer",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=None,
        help="closed-loop mode: this many clients, one outstanding "
        "request each (default: open-loop Poisson arrivals)",
    )
    serve.add_argument(
        "--arrival-rate",
        type=float,
        default=200.0,
        help="open-loop arrival rate in requests per simulated second",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=100,
        help="open loop: total requests; closed loop: requests per client",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=2,
        help="open-loop tenant count (requests are assigned round-robin)",
    )
    serve.add_argument(
        "--think",
        type=float,
        default=0.0,
        help="closed-loop mean think time between requests (seconds)",
    )
    serve.add_argument(
        "--policy",
        choices=("fifo", "sjf", "fair"),
        default="fifo",
        help="scheduling policy for queued requests",
    )
    serve.add_argument(
        "--cache",
        choices=("both", "plan", "result", "none"),
        default="both",
        help="which serving caches to enable",
    )
    serve.add_argument(
        "--streams",
        type=int,
        default=2,
        help="size of the device stream pool (concurrent request slots)",
    )
    serve.add_argument(
        "--queries",
        default="Q6,Q1",
        help="comma-separated TPC-H query mix "
        "(" + ", ".join(sorted(ALL_QUERIES)) + ")",
    )
    serve.add_argument(
        "--sql",
        metavar="QUERY",
        default=None,
        help="add one ad-hoc SQL query (served as tenant mix entry "
        "'ADHOC') alongside --queries",
    )
    serve.add_argument("--backend", default="thrust",
                       help="library backend to serve on")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (same seed = same run, bit-exact)")
    serve.add_argument("--scale-factor", type=float, default=0.003)
    serve.add_argument(
        "--pool",
        action="store_true",
        help="use the pooling device allocator",
    )
    serve.add_argument(
        "--device-mem",
        type=parse_mem_size,
        default=None,
        metavar="SIZE",
        help="override device memory capacity (e.g. 512K, 64M, 2G)",
    )
    serve.add_argument(
        "--admission-budget",
        type=parse_mem_size,
        default=None,
        metavar="SIZE",
        help="admission-control working-set budget (e.g. 3M; default: "
        "80%% of device memory)",
    )
    serve.add_argument(
        "--shed-to-cpu",
        action="store_true",
        help="under device-memory pressure, run requests host-only "
        "(bit-identical, slower) instead of queueing or shedding them",
    )
    serve.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the metrics + per-request records as JSON",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome-trace JSON with per-request spans",
    )
    serve.add_argument(
        "--nodes",
        type=int,
        default=0,
        help="multi-node cluster serving: node count (0 = one device); "
        "each node is one device running its own server, joined to its "
        "peers over the NETWORK link tier",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="cluster mode: shard copies per table (clamped to --nodes); "
        "2+ survives any single node death without data loss",
    )
    serve.add_argument(
        "--kill-node-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cluster mode: arm a node-0 death at this simulated time; "
        "queued and in-flight queries fail over to surviving replicas",
    )
    _add_store_flags(serve)
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)
