"""Fig. JH (extension) — hash join vs. nested loops, per library tier.

The paper stops at the negative result: no studied library can hash-join,
so Fig. J-b prices the gap only through the handwritten kernel.  This
figure quantifies the counterfactual with the ``<library>+hash`` extension
backends: the same build/probe kernels priced at each library's own
efficiency tier, swept over the outer-relation size, against that
library's native nested-loops join.

Also reruns the TPC-H Q3/Q4 plans with both strategies end-to-end on the
handwritten backend — the acceptance numbers for the hash-join subsystem
(identical results, lower simulated time at the largest scale).
"""

import numpy as np

from common import SCALE_FACTORS, out_dir, run_once
from repro.bench import fk_join_keys, write_report
from repro.core import default_framework
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.tpch import TpchGenerator, q3, q4

#: One extra scale beyond the shared sweep: Q4's single FK join only
#: clears the hash join's fixed overheads once the tables are this big.
EXTRA_SCALE = 0.05

#: (native-NLJ backend, hash-capable twin) pairs per efficiency tier.
PAIRS = (
    ("thrust", "thrust+hash"),
    ("boost.compute", "boost.compute+hash"),
    ("arrayfire", "arrayfire+hash"),
    ("handwritten", "handwritten"),
)

OUTER_SIZES = (1 << 14, 1 << 16, 1 << 18)
INNER_FRACTION = 4  # inner = outer / 4 (FK-shaped)


def _join_ms(backend_name, method, left, right):
    backend = default_framework().create(backend_name, Device())
    handles = backend.upload(left), backend.upload(right)
    runner = getattr(backend, method)
    runner(*handles)  # warm (compiles for boost)
    t0 = backend.device.clock.now
    runner(*handles)
    return (backend.device.clock.now - t0) * 1e3


def test_fig_hash_vs_nlj_ladder(benchmark):
    """Hash beats NLJ at every tier once the join is large enough."""

    def sweep():
        rows = {}
        for n_outer in OUTER_SIZES:
            left, right = fk_join_keys(n_outer, n_outer // INNER_FRACTION)
            cells = {}
            for nlj_name, hash_name in PAIRS:
                cells[nlj_name] = (
                    _join_ms(nlj_name, "nested_loop_join", left, right),
                    _join_ms(hash_name, "hash_join", left, right),
                )
            rows[n_outer] = cells
        return rows

    rows = run_once(benchmark, sweep)
    lines = [
        "== Fig. JH-a: hash join vs native NLJ per library tier "
        f"(inner = outer/{INNER_FRACTION}, FK join, warm, simulated ms) ==",
        f"{'outer':>10}  {'backend':>16}  {'nlj ms':>12}  {'hash ms':>12}  "
        f"{'speedup':>8}",
    ]
    for n_outer, cells in rows.items():
        for name, (nlj_ms, hash_ms) in cells.items():
            lines.append(
                f"{n_outer:>10}  {name:>16}  {nlj_ms:12.4f}  "
                f"{hash_ms:12.4f}  {nlj_ms / hash_ms:7.1f}x"
            )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_join_hash_ladder", text, directory=out_dir())
    largest = rows[OUTER_SIZES[-1]]
    for name, (nlj_ms, hash_ms) in largest.items():
        assert hash_ms < nlj_ms, name
    # Library-tier hash joins recover most of the handwritten gap: they
    # land within ~20x of the expert kernel where the NLJ was >100x off.
    hw_hash = largest["handwritten"][1]
    assert largest["thrust"][1] / hw_hash < 20.0
    assert largest["thrust"][0] / hw_hash > 100.0


def _query_ms(catalog, plan):
    backend = default_framework().create("handwritten", Device())
    executor = QueryExecutor(backend, catalog)
    executor.execute(plan)  # cold
    result = executor.execute(plan)
    return result.table, result.report.simulated_ms


def test_fig_tpch_hash_vs_nlj(benchmark, tpch_catalogs):
    """Q3/Q4 with both strategies: identical results, hash faster at scale."""

    scales = SCALE_FACTORS + (EXTRA_SCALE,)
    catalogs = dict(tpch_catalogs)
    catalogs[EXTRA_SCALE] = TpchGenerator(
        scale_factor=EXTRA_SCALE, seed=2021
    ).generate()

    def sweep():
        rows = {}
        for sf in scales:
            catalog = catalogs[sf]
            plans = {
                "Q3": lambda algo, c=catalog: q3.plan(c, join_algorithm=algo),
                "Q4": lambda algo, c=catalog: q4.plan(join_algorithm=algo),
            }
            for query, make_plan in plans.items():
                hash_table, hash_ms = _query_ms(catalog, make_plan("hash"))
                nlj_table, nlj_ms = _query_ms(catalog, make_plan("nested_loop"))
                identical = all(
                    np.array_equal(
                        hash_table.column(name).data,
                        nlj_table.column(name).data,
                    )
                    for name in hash_table.column_names
                )
                rows[(query, sf)] = (nlj_ms, hash_ms, identical)
        return rows

    rows = run_once(benchmark, sweep)
    lines = [
        "== Fig. JH-b: TPC-H Q3/Q4, hash vs nested-loop plans "
        "(handwritten backend, warm, simulated ms) ==",
        f"{'query':>6}  {'SF':>8}  {'nlj ms':>12}  {'hash ms':>12}  "
        f"{'speedup':>8}  {'identical':>9}",
    ]
    for (query, sf), (nlj_ms, hash_ms, identical) in rows.items():
        lines.append(
            f"{query:>6}  {sf:8.3f}  {nlj_ms:12.4f}  {hash_ms:12.4f}  "
            f"{nlj_ms / hash_ms:7.1f}x  {str(identical):>9}"
        )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_tpch_hash_vs_nlj", text, directory=out_dir())
    # Results must be bit-identical everywhere ...
    assert all(identical for _nlj, _hash, identical in rows.values())
    # ... and the hash plan strictly faster at the largest scale.
    for query in ("Q3", "Q4"):
        nlj_ms, hash_ms, _ = rows[(query, scales[-1])]
        assert hash_ms < nlj_ms, query
