"""Compare a parent commit with a change on the trajectory benchmark.

Two steps::

    # 10 alternating pairs: pair i runs the parent first when i is even,
    # the change first when i is odd; one seed per pair.
    python3 benchmarks/trajectory/compare.py run --parent ../parent \\
        --change . --workload serve-mixed --pairs 10 --out pairs.jsonl
    python3 benchmarks/trajectory/compare.py run ... --trace 1 --out pairs.jsonl

    # Verdicts per end-to-end metric, and the per-layer delta table.
    python3 benchmarks/trajectory/compare.py report pairs.jsonl

Both checkouts must hold the same ``benchmarks/trajectory`` files: a
change that claims a gain may not edit the benchmark.  Both sides run
the benchmark's fixed run length.

The rules (see the README): with at least 10 pairs run in alternating
order, a host metric is a **gain** when the change wins at least nine
tenths of the pairs (ties count for neither), its median beats the
parent's by more than the parent's interquartile range, and no more
operations failed than at the parent.  It is a **regression** when the
change's median is worse than the parent's by more than the bound in
``BENCHMARK.json``; **within bound** when it is not, and either the
parent's own spread is within the bound or every change run beats every
parent run.  Anything else is **unresolved**.

A simulated metric (``sim_*``) is a pure function of the seed, and both
sides of a pair run the same seed, so it is **identical** or a **model
change**: any difference in any pair, however small, is the latter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
#: End-to-end metrics on the simulated clock start with this.
SIMULATED = "sim_"

GAIN = "gain"
REGRESSION = "regression"
WITHIN = "within bound"
UNRESOLVED = "unresolved"
IDENTICAL = "identical"
MODEL_CHANGE = "model change"


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    parent_failed: int = 0,
    change_failed: int = 0,
) -> Tuple[str, Dict[str, float]]:
    """Classify one end-to-end metric over paired runs.

    ``parent[i]`` and ``change[i]`` come from pair ``i``.  Returns the
    label and the numbers it rests on.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need one value per pair")
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    stats = {
        "parent_q1": p_q1, "parent_median": p_med, "parent_q3": p_q3,
        "change_q1": c_q1, "change_median": c_med, "change_q3": c_q3,
        "wins": wins, "pairs": len(parent),
        "parent_spread": (p_q3 - p_q1) / p_med if p_med else 0.0,
    }
    if (
        wins >= GAIN_WIN_SHARE * len(parent)
        and -worse_by > p_q3 - p_q1
        and change_failed <= parent_failed
    ):
        return GAIN, stats
    if worse_by > bound * abs(p_med):
        return REGRESSION, stats
    all_better = all(
        _better(c, p, better) for c in change for p in parent
    )
    if stats["parent_spread"] <= bound or all_better:
        return WITHIN, stats
    return UNRESOLVED, stats


def load(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def paired(records: List[dict], workload: str, trace: int) -> List[Tuple[dict, dict]]:
    """(parent, change) results per pair; refuses fewer than
    :data:`MIN_PAIRS` complete pairs or an order that does not alternate."""
    sides: Dict[int, Dict[str, dict]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == trace:
            sides.setdefault(record["pair"], {})[record["side"]] = record
    complete = [
        sides[pair] for pair in sorted(sides)
        if {"parent", "change"} <= set(sides[pair])
    ]
    if len(complete) < MIN_PAIRS:
        raise ValueError(
            f"{workload}: need at least {MIN_PAIRS} pairs, got {len(complete)}"
        )
    parent_first = [
        pair["parent"]["order"] < pair["change"]["order"] for pair in complete
    ]
    if any(a == b for a, b in zip(parent_first, parent_first[1:])):
        raise ValueError(
            f"{workload}: the side that runs first must alternate from one "
            f"pair to the next"
        )
    return [(pair["parent"]["result"], pair["change"]["result"])
            for pair in complete]


def end_to_end_rows(pairs, spec: dict) -> List[List[str]]:
    rows = []
    parent_failed = sum(p["failed"] for p, _c in pairs)
    change_failed = sum(c["failed"] for _p, c in pairs)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _c in pairs]
        change = [c["metrics"][name]["value"] for _p, c in pairs]
        label, stats = verdict(
            parent, change, metric["better"], metric["bound"],
            parent_failed, change_failed,
        )
        if name.startswith(SIMULATED):
            label = IDENTICAL if parent == change else MODEL_CHANGE
        rows.append([
            name, metric["unit"],
            f"{stats['parent_median']:.5g} [{stats['parent_q1']:.5g}, "
            f"{stats['parent_q3']:.5g}]",
            f"{stats['change_median']:.5g} [{stats['change_q1']:.5g}, "
            f"{stats['change_q3']:.5g}]",
            f"{stats['wins']}/{stats['pairs']}",
            f"{100 * metric['bound']:.0f}%",
            label,
        ])
    return rows


def layer_rows(pairs) -> List[List[str]]:
    """Median per-layer deltas, each ratio with its base."""
    rows = []
    for name, entry in pairs[0][0]["metrics"].items():
        parent = statistics.median(p["metrics"][name]["value"] for p, _c in pairs)
        change = statistics.median(c["metrics"][name]["value"] for _p, c in pairs)
        ratio = (
            f"{change / parent:.3f}x of {parent:.5g} {entry['unit']}"
            if parent else f"n/a (base {parent:.5g} {entry['unit']})"
        )
        rows.append([name, entry["unit"], f"{parent:.5g}", f"{change:.5g}",
                     f"{change - parent:+.5g}", ratio])
    return rows


def _table(header: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in [header] + rows
    )


def report(records: List[dict], spec: dict) -> str:
    lines = []
    for workload in sorted({r["workload"] for r in records}):
        for trace in sorted({r["trace"] for r in records if r["workload"] == workload}):
            pairs = paired(records, workload, trace)
            lines.append(
                f"== {workload} ({'traced' if trace else 'plain'}, "
                f"{len(pairs)} pairs; failed ops parent "
                f"{sum(p['failed'] for p, _c in pairs)}, "
                f"change {sum(c['failed'] for _p, c in pairs)})"
            )
            if trace:
                lines.append(_table(
                    ["metric", "unit", "parent", "change", "delta", "ratio (base)"],
                    layer_rows(pairs),
                ))
            else:
                lines.append(_table(
                    ["metric", "unit", "parent median [Q1, Q3]",
                     "change median [Q1, Q3]", "wins", "bound", "verdict"],
                    end_to_end_rows(pairs, spec),
                ))
    return "\n".join(lines)


def _benchmark_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "benchmarks" / "trajectory").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              first_seed: int, trace: int, out: Path) -> None:
    if _benchmark_digest(parent) != _benchmark_digest(change):
        raise SystemExit("the two checkouts hold different benchmark code")
    order = 0
    with open(out, "a", encoding="utf-8") as handle:
        for pair in range(pairs):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                command = [
                    sys.executable, "benchmarks/trajectory/run.py",
                    "--workload", workload, "--seed", str(first_seed + pair),
                    "--trace", str(trace),
                ]
                started = time.time()
                done = subprocess.run(command, cwd=checkout, check=True,
                                      stdout=subprocess.PIPE, text=True)
                handle.write(json.dumps({
                    "pair": pair, "side": side, "order": order,
                    "workload": workload, "seed": first_seed + pair,
                    "trace": trace, "started": started,
                    "result": json.loads(done.stdout.strip().splitlines()[-1]),
                }) + "\n")
                handle.flush()
                order += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--first-seed", type=int, default=100)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path, required=True)
    show = commands.add_parser("report", help="verdicts and layer deltas")
    show.add_argument("records", type=Path)
    show.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args.parent, args.change, args.workload, args.pairs,
                  args.first_seed, args.trace, args.out)
        return 0
    spec = json.loads(args.benchmark.read_text())
    print(report(load(args.records), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
