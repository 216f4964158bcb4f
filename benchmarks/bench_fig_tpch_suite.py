"""Fig. TPC-H suite (new) — the whole 16-query suite, end to end.

"Rethinking Analytical Processing in the GPU Era" benchmarks whole-suite
TPC-H rather than single queries; with the SQL frontend the simulator
can finally do the same.  Every registered query runs end to end — the
ten SQL-frontend queries from their SQL *text* (parse → bind → optimize
→ execute), the four legacy hand-built plans plus Q5/Q10 from their
builders — on the handwritten (expert eager) backend and the compiled
(fused-pipeline) backend, warm, and each result is checked against the
query module's NumPy oracle before any time is reported.

Acceptance floors:

* every query's result matches its oracle (exact ints, ``allclose``
  floats) on both backends;
* the compiled backend is never slower than the eager baseline on any
  query (``RATIO_CEILING``);
* each query's warm end-to-end time stays under a per-query ceiling
  (``CEILING_MS``) — the times are *simulated* and deterministic, so
  absolute ceilings are stable gates, not flaky ones;
* every registered query is in the run.

Run under pytest for the SF sweep, or directly with ``--smoke`` for the
CI smoke job: per-query warm runtimes, oracle verdicts and the floor
rows enforced on them saved to ``fig_tpch_suite_smoke.json``.
"""

import inspect

import numpy as np

from common import failed_floors, finish_smoke, out_dir, run_once, smoke_main
from repro.bench import write_report
from repro.core import CompiledBackend, default_framework
from repro.gpu import GTX_1080TI, Device
from repro.query import QueryExecutor
from repro.sql import sql_to_plan
from repro.tpch import ALL_QUERIES, SQL_QUERIES, TpchGenerator

CATALOG_SEED = 19920101
SMOKE_SCALE_FACTOR = 0.005
SWEEP_SCALE_FACTORS = (0.002, 0.005)

#: Compiled may never be slower than the eager baseline on any query.
RATIO_CEILING = 1.0

#: Per-query ceilings (ms, warm, handwritten, SF 0.005) — roughly 2x
#: the measured simulated time at the smoke's scale, which is
#: deterministic.  Smaller sweep scale factors sit further below them.
CEILING_MS = {
    "Q1": 1.1, "Q3": 1.1, "Q4": 0.6, "Q5": 1.2, "Q6": 0.35,
    "Q7": 1.6, "Q8": 2.0, "Q9": 1.9, "Q10": 0.7, "Q11": 0.7,
    "Q12": 0.7, "Q14": 0.55, "Q16": 0.6, "Q18": 0.75, "Q19": 0.7,
    "Q22": 0.6,
}


def _catalog(scale_factor):
    return TpchGenerator(
        scale_factor=scale_factor, seed=CATALOG_SEED
    ).generate()


def _plan_of(name, catalog):
    """The query's plan: from SQL text when the module ships it."""
    module = ALL_QUERIES[name]
    if name in SQL_QUERIES:
        return sql_to_plan(module.sql(), catalog)
    if "catalog" in inspect.signature(module.plan).parameters:
        return module.plan(catalog)
    return module.plan()


def _reference_of(name, catalog):
    module = ALL_QUERIES[name]
    if "catalog" in inspect.signature(module.reference).parameters:
        expected = module.reference(catalog)
    else:
        expected = module.reference()
    # Q3/Q10-style oracles return the full sorted result and leave the
    # LIMIT to the caller; apply it so shapes line up.  Q3 hardcodes its
    # top-10 in the plan rather than in its params.
    limit = getattr(
        module.DEFAULT_PARAMS, "limit", 10 if name == "Q3" else None
    )
    if limit is not None:
        expected = {name: data[:limit] for name, data in expected.items()}
    return expected


def _matches(table, expected):
    """True when ``table`` equals the oracle columns (allclose floats)."""
    num_rows = len(next(iter(expected.values()))) if expected else 0
    if table.num_rows != num_rows:
        return False
    for column, want in expected.items():
        if column not in table.column_names:
            return False
        got = table.column(column).data
        if np.issubdtype(np.asarray(want).dtype, np.floating):
            if not np.allclose(got, want, rtol=1e-9):
                return False
        elif not np.array_equal(got, want):
            return False
    return True


def _warm(executor, plan):
    executor.execute(plan)
    return executor.execute(plan)


def _run_suite(catalog):
    """(name -> (eager result, fused result)) for every query, warm."""
    results = {}
    for name in sorted(ALL_QUERIES, key=lambda q: int(q[1:])):
        plan = _plan_of(name, catalog)
        eager = _warm(
            QueryExecutor(
                default_framework().create("handwritten", Device(GTX_1080TI)),
                catalog,
            ),
            plan,
        )
        fused = _warm(
            QueryExecutor(
                CompiledBackend(Device(GTX_1080TI), fusion="auto"), catalog
            ),
            plan,
        )
        results[name] = (eager, fused)
    return results


def _payload(scale_factor):
    """Per-query warm times and oracle verdicts for the whole suite."""
    catalog = _catalog(scale_factor)
    payload = {"scale_factor": scale_factor, "queries": {}}
    for name, (eager, fused) in _run_suite(catalog).items():
        expected = _reference_of(name, catalog)
        eager_ms = eager.report.simulated_seconds * 1e3
        fused_ms = fused.report.simulated_seconds * 1e3
        payload["queries"][name] = {
            "warm_ms": eager_ms,
            "compiled_ms": fused_ms,
            "ratio": fused_ms / eager_ms,
            "rows": eager.table.num_rows,
            "from_sql": name in SQL_QUERIES,
            "oracle_match": (
                _matches(eager.table, expected)
                and _matches(fused.table, expected)
            ),
        }
    return payload


def _floors(payload):
    """Suite size, then oracle, ceiling and fusion rows per query."""
    queries = payload["queries"]
    rows = [("queries run", len(queries), ">=", len(ALL_QUERIES))]
    for name, row in queries.items():
        rows += [
            (f"{name} oracle match", row["oracle_match"], "==", True),
            (f"{name} warm ms", row["warm_ms"], "<=", CEILING_MS[name]),
            (
                f"{name} compiled/eager ratio", row["ratio"], "<=",
                RATIO_CEILING,
            ),
        ]
    return rows


def test_fig_tpch_suite(benchmark):
    payloads = run_once(
        benchmark,
        lambda: [_payload(scale_factor) for scale_factor in SWEEP_SCALE_FACTORS],
    )

    lines = [
        "== Fig. TPC-H suite: all 16 queries end to end "
        "(SQL-frontend queries from SQL text), warm ==",
        f"{'SF':>6}  {'query':>6}  {'eager ms':>9}  {'fused ms':>9}  "
        f"{'ratio':>6}  {'rows':>6}  {'source':>7}",
    ]
    for payload in payloads:
        for name, row in payload["queries"].items():
            lines.append(
                f"{payload['scale_factor']:6.3f}  {name:>6}  "
                f"{row['warm_ms']:9.4f}  {row['compiled_ms']:9.4f}  "
                f"{row['ratio']:6.2f}  {row['rows']:6d}  "
                f"{'sql' if row['from_sql'] else 'builder':>7}"
            )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_tpch_suite", text, directory=out_dir())

    # Acceptance: every query matches its oracle on both backends, stays
    # under its ceiling, and fusion never loses to the eager chain.
    for payload in payloads:
        assert failed_floors(_floors(payload)) == [], payload["scale_factor"]


def _smoke() -> int:
    """CI smoke: the full suite once, floors enforced."""
    payload = _payload(SMOKE_SCALE_FACTOR)
    queries = payload["queries"]
    worst = max(queries, key=lambda q: queries[q]["warm_ms"] / CEILING_MS[q])
    print(
        f"tpch suite smoke (SF {SMOKE_SCALE_FACTOR}): {len(queries)} "
        f"queries, {sum(r['from_sql'] for r in queries.values())} from "
        f"SQL text; tightest ceiling {worst} "
        f"{queries[worst]['warm_ms']:.3f}/{CEILING_MS[worst]:.2f} ms"
    )
    return finish_smoke(
        "fig_tpch_suite_smoke.json", payload, _floors(payload)
    )


if __name__ == "__main__":
    smoke_main(lambda args: _smoke(), doc=__doc__)
