"""Fig. QJ (inferred) — TPC-H join queries (Q3, Q4) per library and join
algorithm.

The decisive comparison of the paper: with no hashing in any library, the
join queries run on nested loops (or the composed sort-merge); the
handwritten hash join runs the *same logical plan* orders of magnitude
faster once the joins dominate.
"""

from common import SCALE_FACTORS, out_dir, run_once
from repro.bench import write_report
from repro.core import default_framework
from repro.errors import UnsupportedOperatorError
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.tpch import q3, q4

#: (backend, join algorithm) configurations the figure reports.
CONFIGURATIONS = (
    ("thrust", "nested_loop"),
    ("thrust", "merge"),
    ("thrust+hash", "hash"),
    ("boost.compute", "nested_loop"),
    ("arrayfire", "nested_loop"),
    ("handwritten", "nested_loop"),
    ("handwritten", "hash"),
)


def _measure(framework, backend_name, catalog, plan):
    backend = framework.create(backend_name, Device())
    executor = QueryExecutor(backend, catalog)
    try:
        executor.execute(plan)  # cold
        return executor.execute(plan).report.simulated_ms
    except UnsupportedOperatorError:
        return None


def _render(title, rows):
    lines = [
        f"== {title} (warm, simulated ms) ==",
        f"{'SF':>8}  " + "  ".join(
            f"{name}/{algo}"[:22].rjust(22) for name, algo in CONFIGURATIONS
        ),
    ]
    for sf, cells in rows.items():
        rendered = [
            "n/a".rjust(22) if cells[cfg] is None else f"{cells[cfg]:22.4f}"
            for cfg in CONFIGURATIONS
        ]
        lines.append(f"{sf:8.3f}  " + "  ".join(rendered))
    return "\n".join(lines)


def _sweep(framework, tpch_catalogs, make_plan):
    rows = {}
    for sf in SCALE_FACTORS:
        catalog = tpch_catalogs[sf]
        cells = {}
        for name, algo in CONFIGURATIONS:
            cells[(name, algo)] = _measure(
                framework, name, catalog, make_plan(catalog, algo)
            )
        rows[sf] = cells
    return rows


def test_fig_tpch_q3_join_algorithms(benchmark, tpch_catalogs):
    framework = default_framework()

    def sweep():
        return _sweep(
            framework, tpch_catalogs,
            lambda catalog, algo: q3.plan(catalog, join_algorithm=algo),
        )

    rows = run_once(benchmark, sweep)
    text = _render("Fig. QJ-a: TPC-H Q3 by backend and join algorithm", rows)
    largest = rows[SCALE_FACTORS[-1]]
    speedup = (
        largest[("thrust", "nested_loop")] / largest[("handwritten", "hash")]
    )
    text += (
        f"\nhash-join plan speedup over thrust NLJ plan at "
        f"SF {SCALE_FACTORS[-1]}: {speedup:.1f}x"
    )
    print("\n" + text)
    write_report("fig_tpch_q3_joins", text, directory=out_dir())
    assert largest[("handwritten", "hash")] < largest[("thrust", "nested_loop")]
    assert largest[("thrust", "merge")] < largest[("thrust", "nested_loop")]
    # The hash plan beats the NLJ plan on the *same* backend at scale,
    # and the extension closes most of thrust's gap.
    assert (
        largest[("handwritten", "hash")]
        < largest[("handwritten", "nested_loop")]
    )
    assert (
        largest[("thrust+hash", "hash")] < largest[("thrust", "nested_loop")]
    )
    # The gap widens with scale (quadratic vs linear joins).
    first = rows[SCALE_FACTORS[0]]
    gap_small = (
        first[("thrust", "nested_loop")] / first[("handwritten", "hash")]
    )
    assert speedup > gap_small


def test_fig_tpch_q4_join_algorithms(benchmark, tpch_catalogs):
    framework = default_framework()

    def sweep():
        return _sweep(
            framework, tpch_catalogs,
            lambda _catalog, algo: q4.plan(join_algorithm=algo),
        )

    rows = run_once(benchmark, sweep)
    text = _render("Fig. QJ-b: TPC-H Q4 by backend and join algorithm", rows)
    print("\n" + text)
    write_report("fig_tpch_q4_joins", text, directory=out_dir())
    largest = rows[SCALE_FACTORS[-1]]
    assert largest[("handwritten", "hash")] < largest[("thrust", "nested_loop")]
