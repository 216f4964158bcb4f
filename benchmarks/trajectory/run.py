"""Two-clock trajectory benchmark: entry point.

One workload, in this process::

    python3 benchmarks/trajectory/run.py --workload tpch-suite --seed 1 \\
        --seconds 12 --trace 0

All four workloads, each in its own fresh process, one at a time::

    python3 benchmarks/trajectory/run.py --seed 1 [--trace 1] [--smoke]

A run builds the workload several times and warms the last build once
(``setup_s`` is the median build plus the warm pass), checks every result
against the NumPy oracles, then repeats one fixed round until
``--seconds`` of host time have passed, and at least three times.  Each
operation's host time is its median over the repeats, which drops the
short slow phases a shared machine goes through; the reported host times
are then scaled to a nominal machine speed by a reference task timed
during the run (see ``measure.Reference``), which removes the long ones.
The simulated clock comes from the first round.  It prints one
``workload metric value unit`` line per metric and, as its last line,
the JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run times one plain round, then profiles further rounds with
cProfile, and reports the per-layer metrics and a Chrome trace of its
spans.  Full results go to ``benchmarks/trajectory/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"
#: Host seconds one run measures; BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 12
#: Fewest repeats of the round: a per-operation median needs three.
MIN_REPEATS = 3
WORKLOAD_NAMES = ("tpch-suite", "serve-mixed", "serve-rw", "tiered-spill")

# The engine is single-threaded NumPy; keep BLAS pools from adding
# threads (and noise) on a small machine.  Must precede the first
# NumPy import.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
sys.path.insert(0, str(SRC))

from measure import (  # noqa: E402
    LAYERS,
    OTHER,
    Reference,
    Spans,
    attribute_layers,
    nearest_rank,
    peak_rss_mb,
)

#: End-to-end metrics (plain run) and their units.
END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "host_ms_p50": "ms",
    "host_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "sim_ms_mean": "ms",
    "sim_ms_p90": "ms",
}

#: Build phases, each timed as a span around public calls; then the
#: warm pass, which runs once per run.
BUILD_PHASES = ("generate", "parse", "bind", "optimize", "lower", "load")
PHASES = BUILD_PHASES + ("warm",)

#: Layer counters a workload reports; zero where it does not use the layer.
COUNTERS = {
    "serve.queue_wait_pct": "%",
    "serve.stream_busy_pct": "%",
    "serve.shed": "count",
    "serve.result_cache_hit_pct": "%",
    "serve.plan_cache_hit_pct": "%",
    "serve.invalidations": "count",
    "storage.promotes": "count",
    "storage.spills": "count",
    "storage.nvme_read_bytes": "bytes",
    "storage.decoded_bytes": "bytes",
    "storage.bandwidth_gain": "x",
    "hetero.cpu_segments": "count",
    "hetero.gpu_segments": "count",
    "hetero.staged_bytes": "bytes",
}

#: Per-layer metrics (traced run) and their units.
PER_LAYER = {
    **{f"host.{layer}_pct": "%" for layer in LAYERS + (OTHER,)},
    "trace.overhead_x": "x",
    **{f"span.{phase}_ms": "ms" for phase in PHASES},
    "sim.kernel_pct": "%",
    "sim.transfer_pct": "%",
    "sim.alloc_pct": "%",
    "sim.host_io_pct": "%",
    "sim.kernels_per_op": "count",
    "sim.events_per_op": "count",
    "sim.h2d_bytes_per_op": "bytes",
    "sim.roofline_pct": "%",
    **COUNTERS,
}


def _host(rounds) -> List[float]:
    return [seconds for rnd in rounds for seconds in rnd.host_s]


def op_host_s(rounds) -> List[float]:
    """Each operation's host seconds: its median over the repeats of the
    round, which runs the same operations in the same order each time."""
    return [
        statistics.median(times)
        for times in zip(*(rnd.host_s for rnd in rounds))
    ]


def host_metrics(setup_s: float, rounds, scale: float) -> Dict[str, float]:
    """Host-clock metrics over every repeat, each time multiplied by
    ``scale`` (see :meth:`measure.Reference.scale`)."""
    host = [scale * seconds for seconds in op_host_s(rounds)]
    return {
        "setup_s": scale * setup_s,
        "host_ops_per_s": len(host) / sum(host),
        "host_ms_p50": 1e3 * nearest_rank(host, 0.50),
        "host_ms_p90": 1e3 * nearest_rank(host, 0.90),
    }


def end_to_end(setup_s: float, rounds, scale: float) -> Dict[str, float]:
    """The plain run's metrics: host clock at the nominal speed,
    simulated clock over the first (seeded, deterministic) round."""
    sim = rounds[0].sim_ms
    return {
        **host_metrics(setup_s, rounds, scale),
        "peak_rss_mb": peak_rss_mb(),
        "sim_ms_mean": statistics.fmean(sim),
        "sim_ms_p90": nearest_rank(sim, 0.90),
    }


def simulated_layers(rnd) -> Dict[str, float]:
    """Event-kind shares and per-operation counts of one round."""
    by_kind = rnd.time_by_kind
    total = sum(by_kind.values())
    ops = len(rnd.sim_ms)

    def share(*kinds):
        return 100.0 * sum(by_kind.get(kind, 0.0) for kind in kinds) / total

    return {
        "sim.kernel_pct": share("kernel"),
        "sim.transfer_pct": share("transfer_h2d", "transfer_d2h", "transfer_d2d"),
        "sim.alloc_pct": share("alloc", "free"),
        "sim.host_io_pct": share("host_io"),
        "sim.kernels_per_op": rnd.count_by_kind.get("kernel", 0) / ops,
        "sim.events_per_op": sum(rnd.count_by_kind.values()) / ops,
        "sim.h2d_bytes_per_op": rnd.bytes_h2d / ops,
        "sim.roofline_pct": (
            100.0 * rnd.kernel_bytes / rnd.kernel_capacity
            if rnd.kernel_capacity else 0.0
        ),
    }


def untraced_layers(phase_ms, plain) -> Dict[str, float]:
    """Per-layer metrics that need no profiler: set-up spans (median
    over the builds), and the first round's simulated counts."""
    metrics = {
        f"span.{phase}_ms": statistics.median(values)
        for phase, values in phase_ms.items()
    }
    metrics.update(simulated_layers(plain))
    metrics.update({name: plain.counters.get(name, 0) for name in COUNTERS})
    return metrics


def per_layer(phase_ms, plain, traced, profile) -> Dict[str, float]:
    """The traced run's metrics: cProfile self-time shares per layer and
    the tracing overhead against the plain round, plus the rest."""
    seconds, total = attribute_layers(pstats.Stats(profile).stats)
    metrics = {
        f"host.{layer}_pct": 100.0 * spent / total
        for layer, spent in seconds.items()
    }
    metrics["trace.overhead_x"] = sum(op_host_s(traced)) / sum(plain.host_s)
    metrics.update(untraced_layers(phase_ms, plain))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Set up, check and time one workload in this process."""
    from workloads import WORKLOADS, catalog_digest

    workload = WORKLOADS[name]
    size = workload.smoke if smoke else workload.full
    started = time.time()
    spans = Spans()
    build_s: List[float] = []
    phase_ms: Dict[str, List[float]] = {phase: [] for phase in BUILD_PHASES}
    state = None
    with spans.span(name):
        for index in range(size.builds):
            state = None
            gc.collect()
            before = {phase: spans.total_ms(phase) for phase in BUILD_PHASES}
            start = time.perf_counter()
            with spans.span(f"build#{index}"):
                state = workload.build(seed, size, spans)
            build_s.append(time.perf_counter() - start)
            for phase in BUILD_PHASES:
                phase_ms[phase].append(spans.total_ms(phase) - before[phase])
        start = time.perf_counter()
        with spans.span("warm"):
            workload.warm(state)
        warm_s = time.perf_counter() - start
        phase_ms["warm"] = [1e3 * warm_s]
        workload.compute_oracles(state)

        # A traced run reports no host times, and the profiler would
        # charge the reference task to the workload: no reference there.
        reference = Reference(every_s=math.inf) if trace else Reference()
        rounds = []
        if trace:
            with spans.span("round#0 plain"):
                rounds.append(workload.round(state, spans, None, reference))
        profile = cProfile.Profile() if trace else None
        measured = []
        while len(measured) < MIN_REPEATS or sum(_host(measured)) < seconds:
            with spans.span(f"round#{len(rounds) + len(measured)}"):
                measured.append(
                    workload.round(state, spans, profile, reference)
                )
        rounds += measured

    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    untraced = rounds[:1] if trace else rounds
    setup_s = statistics.median(build_s) + warm_s
    if trace:
        metrics = per_layer(phase_ms, rounds[0], measured, profile)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans.write_chrome_trace(OUT / f"trace_{name}.json")
    else:
        metrics = end_to_end(setup_s, rounds, reference.scale())
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "started": started,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
        # Without --trace, the per-layer metrics that need no profiler.
        "layers": {} if trace else untraced_layers(phase_ms, rounds[0]),
        "details": {
            "rounds": len(rounds),
            "host_seconds": sum(_host(rounds)),
            "build_s": build_s,
            "warm_s": warm_s,
            # The host metrics as the wall clock read them, unscaled.
            "wall_clock": host_metrics(setup_s, untraced, 1.0),
            "reference_ms": reference.samples_ms,
            "catalog_digest": catalog_digest(state.catalog),
            "sequence_digest": _digest(rounds[0].sequence),
            "params": {query: repr(p) for query, p in state.params.items()},
            "first_round": rounds[0].details,
            "span_ms": _pooled_span_medians(untraced),
            "errors": [error for rnd in rounds for error in rnd.errors][:20],
        },
    }


def _pooled_span_medians(rounds) -> Dict[str, float]:
    """Median of each workload-specific host span over the rounds."""
    pooled: Dict[str, List[float]] = {}
    for rnd in rounds:
        for name, samples in rnd.spans_ms.items():
            pooled.setdefault(name, []).extend(samples)
    return {
        name: statistics.median(samples)
        for name, samples in sorted(pooled.items()) if samples
    }


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _print_result(result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{result['workload']} {metric} {entry['value']!r} {entry['unit']}")


def _summary_line(result: dict) -> str:
    return json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def _run_all(args) -> int:
    """Every workload in its own fresh process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one build: for the self-tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    _print_result(result)
    print(_summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
