"""Shared constants, report plumbing and smoke entry point for the benchmarks.

Every figure script imports its report directory, sweep constants and
``run_once`` from here.  The seven scripts with a ``--smoke`` entry also
end in :func:`finish_smoke`: each owns its performance floors as rows
``(label, value, op, bound)`` built from its own constants, and the
helper writes the artifact with those rows under ``floors`` *before*
enforcing them, so a failing floor still leaves the JSON to inspect.

Usage, at the bottom of a figure script::

    if __name__ == "__main__":
        smoke_main(lambda args: _smoke(), doc=__doc__)

Scripts with extra knobs pass an ``add_args`` hook::

    smoke_main(
        lambda args: _smoke(args.clients, args.requests),
        doc=__doc__,
        add_args=lambda parser: [
            parser.add_argument("--clients", type=int, default=2),
            parser.add_argument("--requests", type=int, default=8),
        ],
    )
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default report directory, regardless of the process cwd.  The
#: ``REPRO_BENCH_OUT`` environment variable overrides it at run time (CI
#: points it at a per-job artifact directory).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The three studied libraries, in Table II column order.
LIBRARIES = ("arrayfire", "boost.compute", "thrust")
#: The studied libraries plus the expert baseline.
ALL_GPU = ("arrayfire", "boost.compute", "thrust", "handwritten")

#: Scale factors for the TPC-H sweeps (simulator-sized; the paper used
#: SF 1-10 on physical hardware — shapes, not absolutes, transfer).
SCALE_FACTORS = (0.002, 0.005, 0.01, 0.02)

#: The refusal printed when a figure script is run without ``--smoke``:
#: the full sweeps only make sense under pytest(-benchmark).
NOT_SMOKE_ERROR = "run under pytest for the full sweep, or pass --smoke"

#: A floor row: what is measured, its value, and the bound it must meet.
Floor = Tuple[str, Any, str, Any]

#: The comparisons a floor row may use.
FLOOR_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def out_dir() -> Path:
    """The report directory, created (with parents) on first use.

    Honours ``REPRO_BENCH_OUT`` at call time, so a CI job (or a test) can
    redirect every report without touching the checkout.
    """
    path = Path(os.environ.get("REPRO_BENCH_OUT") or OUT_DIR)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    The interesting measurements are simulated; repeating the sweep would
    only re-measure the simulator's wall time.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def failed_floors(rows: Sequence[Floor]) -> List[Floor]:
    """The rows whose value does not meet its bound."""
    return [
        row for row in rows if not FLOOR_OPS[row[2]](row[1], row[3])
    ]


def _show(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def finish_smoke(
    filename: str, payload: Dict[str, Any], floors: Sequence[Floor]
) -> int:
    """Write a smoke artifact with its floor rows, then enforce them.

    The artifact is ``payload`` plus ``floors`` (one object per row),
    written in one canonical byte format (``indent=1`` plus a trailing
    newline) before any row is checked.  Every failing row is printed to
    stderr, tagged with the artifact's file name.  Returns the exit
    status: 1 if any row failed, else 0.
    """
    artifact = {
        **payload,
        "floors": [
            {"label": label, "value": value, "op": op, "bound": bound}
            for label, value, op, bound in floors
        ],
    }
    path = out_dir() / filename
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1)
        handle.write("\n")
    failed = failed_floors(floors)
    for label, value, op, bound in failed:
        print(
            f"floor failed [{path.name}]: {label} {_show(value)} "
            f"is not {op} {_show(bound)}",
            file=sys.stderr,
        )
    print(f"{len(floors) - len(failed)}/{len(floors)} floors met -> {path}")
    return 1 if failed else 0


def smoke_main(
    smoke: Callable[[argparse.Namespace], Optional[int]],
    doc: Optional[str] = None,
    add_args: Optional[Callable[[argparse.ArgumentParser], Any]] = None,
    help_text: str = "run the tiny CI smoke configuration",
) -> None:
    """The standard figure-script entry point.

    Parses ``--smoke`` (plus whatever ``add_args`` registers on the
    parser), refuses a smoke-less invocation with :data:`NOT_SMOKE_ERROR`,
    runs ``smoke(args)``, and exits with its return code.
    """
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--smoke", action="store_true", help=help_text)
    if add_args is not None:
        add_args(parser)
    args = parser.parse_args()
    if not args.smoke:
        parser.error(NOT_SMOKE_ERROR)
    raise SystemExit(smoke(args))
