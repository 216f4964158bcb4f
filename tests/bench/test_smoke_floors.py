"""Every smoke's own floors must demonstrably fail on a regression.

Each ``bench_fig_*.py`` with a ``--smoke`` entry owns its floors: a
``_floors(payload)`` function returning ``(label, value, op, bound)``
rows built from the script's constants, which ``common.finish_smoke``
writes into the artifact and then enforces.  These tests drive every
``_floors`` with a healthy synthetic payload (only the fields it reads),
which must meet every row, and with one injected regression per case,
which must fail exactly one row: the one naming that floor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import bench_fig_cluster as cluster  # noqa: E402
import bench_fig_fused_pipeline as fused  # noqa: E402
import bench_fig_hetero as hetero  # noqa: E402
import bench_fig_scaleout as scaleout  # noqa: E402
import bench_fig_serve as serve  # noqa: E402
import bench_fig_tiered as tiered  # noqa: E402
import bench_fig_tpch_suite as tpch  # noqa: E402
import common  # noqa: E402


def _fused():
    return {"queries": {
        "Q1": {"kernel_speedup": 2.6}, "Q6": {"kernel_speedup": 3.6},
    }}


def _scaleout():
    return {"devices": 2, "queries": {
        "Q1": {"speedup": 1.38}, "Q6": {"speedup": 1.35},
        "Q3": {"speedup": 1.22},
    }}


def _serve():
    return {"offered_requests": 16, "metrics": {
        "total_requests": 16, "completed": 16, "shed": 0,
        "throughput_qps": 8800.0,
    }}


def _tpch():
    return {"queries": {
        name: {
            "warm_ms": tpch.CEILING_MS[name] / 2, "ratio": 0.8,
            "oracle_match": True,
        }
        for name in tpch.ALL_QUERIES
    }}


def _tiered_cell(query, multiple, speedup, spills=0):
    return {
        "query": query, "multiple": multiple, "baseline_ms": 2.0,
        "tiered_ms": 2.0 / speedup, "speedup": speedup, "gain": 2.5,
        "spills": spills, "promotes": 12, "oracle_match": True,
    }


def _tiered():
    return {"cells": [
        _tiered_cell("Q1", 2, 1.1),
        _tiered_cell("Q1", 8, 0.9, spills=4),
        _tiered_cell("Q6", 2, 1.8),
        _tiered_cell("Q6", 8, 0.8, spills=9),
    ]}


def _cluster():
    return {
        "failover": {
            "total": 96, "completed": 96, "failed": 0, "unreported": 0,
            "failovers": 1, "oracle_matches": True, "ratio": 1.2,
        },
        "elastic": {
            "nodes": 4, "speedup": 2.2,
            "scale_events": ["scale_up", "scale_up"],
        },
    }


def _hetero():
    return {
        "crossover": {
            "size": {"flipped": True, "endpoints_identical": True},
            "selectivity": {"flipped": True},
        },
        "queries": {
            name: {
                "placement": "CGGG", "hybrid": True, "vs_cpu": 1.5,
                "vs_gpu": 1.2, "oracle_match": True,
                "cross_mode_match": True,
            }
            for name in hetero.ALL_QUERIES
        },
        "hybrid": {"query": "Q8", "vs_cpu": 7.0, "vs_gpu": 1.2},
        "shed": {
            "total": 12, "completed": 12, "shed": 0, "shed_to_cpu": 5,
            "oracle_matches": True,
        },
    }


#: script -> (module owning the floors, healthy payload factory).
SCRIPTS = {
    "fused": (fused, _fused),
    "scaleout": (scaleout, _scaleout),
    "serve": (serve, _serve),
    "tpch": (tpch, _tpch),
    "tiered": (tiered, _tiered),
    "cluster": (cluster, _cluster),
    "hetero": (hetero, _hetero),
}


def _set(*pairs):
    """A mutation setting each dotted path to its value.

    ``pairs`` alternates path and value; integer path parts index lists,
    and a callable value maps the old value to the new one.
    """
    def mutate(payload):
        for path, value in zip(pairs[::2], pairs[1::2]):
            *parents, leaf = path.split(".")
            node = payload
            for key in parents:
                node = node[int(key) if isinstance(node, list) else key]
            leaf = int(leaf) if isinstance(node, list) else leaf
            node[leaf] = value(node[leaf]) if callable(value) else value
    return mutate


def _first(count):
    return lambda queries: dict(list(queries.items())[:count])


def _no_mixed_placement(payload):
    for row in payload["queries"].values():
        row["hybrid"] = False
    payload["hybrid"] = hetero._best_hybrid(payload["queries"])


def _case(script, case_id, mutate, label):
    return pytest.param(script, mutate, label, id=f"{script}-{case_id}")


#: (script, mutation, label of the one row it must fail).
REGRESSIONS = [
    _case("fused", "q1-speedup", _set("queries.Q1.kernel_speedup", 1.5),
          "Q1 kernel speedup"),
    _case("fused", "q6-speedup", _set("queries.Q6.kernel_speedup", 1.4),
          "Q6 kernel speedup"),
    _case("scaleout", "q6-2-devices",
          _set("queries.Q6.speedup", 1.05), "Q6 speedup on 2 devices"),
    _case("scaleout", "q6-4-devices", _set("devices", 4),
          "Q6 speedup on 4 devices"),
    _case("scaleout", "q3-below-1-device",
          _set("queries.Q3.speedup", 0.9), "Q3 speedup on 2 devices"),
    _case("serve", "lost-request",
          _set("metrics.total_requests", 15, "metrics.completed", 15),
          "requests recorded"),
    _case("serve", "incomplete", _set("metrics.completed", 14),
          "completed requests"),
    _case("serve", "shed", _set("metrics.shed", 2), "shed requests"),
    _case("serve", "zero-throughput", _set("metrics.throughput_qps", 0.0),
          "nonzero throughput"),
    _case("tpch", "oracle", _set("queries.Q5.oracle_match", False),
          "Q5 oracle match"),
    _case("tpch", "above-ceiling",
          _set("queries.Q6.warm_ms", lambda ms: ms * 2.8), "Q6 warm ms"),
    _case("tpch", "fusion-regression", _set("queries.Q3.ratio", 1.3),
          "Q3 compiled/eager ratio"),
    _case("tpch", "shrunken-suite", _set("queries", _first(10)),
          "queries run"),
    _case("cluster", "incomplete", _set("failover.completed", 90),
          "completed under node kill"),
    _case("cluster", "lost-unreported", _set("failover.unreported", 6),
          "requests lost and unreported"),
    _case("cluster", "exhausted-retries", _set("failover.failed", 3),
          "requests out of failover retries"),
    _case("cluster", "no-failover", _set("failover.failovers", 0),
          "failovers"),
    _case("cluster", "oracle", _set("failover.oracle_matches", False),
          "failover oracle match"),
    _case("cluster", "tail-blowup", _set("failover.ratio", 2.4),
          "failure p99 / healthy p99"),
    _case("cluster", "scaleout", _set("elastic.speedup", 1.1),
          "saturated scale-out to 4 nodes"),
    _case("cluster", "never-scaled-up", _set("elastic.scale_events", []),
          "elastic scale-ups"),
    _case("tiered", "oracle", _set("cells.2.oracle_match", False),
          "Q6@2x oracle match"),
    _case("tiered", "gain", _set("cells.0.gain", 1.2),
          "Q1@2x bandwidth gain"),
    _case("tiered", "no-promotes", _set("cells.1.promotes", 0),
          "Q1@8x promotes"),
    _case("tiered", "runtime-cliff", _set("cells.1.tiered_ms", 4.8),
          "Q1@8x tiered/baseline runtime"),
    _case("tiered", "no-light-pressure-win",
          _set("cells.0.speedup", 1.02, "cells.2.speedup", 0.98),
          "best speedup at 2x"),
    _case("tiered", "no-deep-spills",
          _set("cells.1.spills", 0, "cells.3.spills", 0), "spills at 8x"),
    _case("hetero", "size-unflipped",
          _set("crossover.size.flipped", False), "size crossover flipped"),
    _case("hetero", "selectivity-unflipped",
          _set("crossover.selectivity.flipped", False),
          "selectivity crossover flipped"),
    _case("hetero", "endpoints",
          _set("crossover.size.endpoints_identical", False),
          "size endpoints identical"),
    _case("hetero", "oracle", _set("queries.Q5.oracle_match", False),
          "Q5 oracle match"),
    _case("hetero", "cross-mode", _set("queries.Q7.cross_mode_match", False),
          "Q7 cross-mode match"),
    _case("hetero", "auto-regression", _set("queries.Q3.vs_cpu", 0.6),
          "Q3 auto vs best pure placement"),
    _case("hetero", "hybrid-below-floor", _set("hybrid.vs_gpu", 1.05),
          "best hybrid (Q8) vs both pure placements"),
    _case("hetero", "no-mixed-placement", _no_mixed_placement,
          "best hybrid (None) vs both pure placements"),
    _case("hetero", "shrunken-suite", _set("queries", _first(9)),
          "queries run"),
    _case("hetero", "no-pressure-requests",
          _set("shed.total", 0, "shed.completed", 0),
          "requests under pressure"),
    _case("hetero", "incomplete-under-pressure", _set("shed.completed", 10),
          "completed under pressure"),
    _case("hetero", "shed-under-pressure", _set("shed.shed", 2),
          "shed under pressure"),
    _case("hetero", "never-shed-to-cpu", _set("shed.shed_to_cpu", 0),
          "shed to the CPU"),
    _case("hetero", "shed-oracle", _set("shed.oracle_matches", False),
          "shed-to-cpu oracle match"),
]


#: Payloads that meet every floor: each script's healthy one, plus a
#: 4-device scale-out run at the full 2.5x Q6 floor.
HEALTHY = [pytest.param(script, _set(), id=script) for script in SCRIPTS] + [
    pytest.param(
        "scaleout", _set("devices", 4, "queries.Q6.speedup", 2.7),
        id="scaleout-4-devices",
    ),
]


def _floors(script, mutate):
    module, healthy = SCRIPTS[script]
    payload = healthy()
    mutate(payload)
    return module._floors(payload)


def _failed_labels(script, mutate):
    return [row[0] for row in common.failed_floors(_floors(script, mutate))]


@pytest.mark.parametrize("script, mutate", HEALTHY)
def test_healthy_payload_meets_every_floor(script, mutate):
    rows = _floors(script, mutate)
    assert rows and common.failed_floors(rows) == []


@pytest.mark.parametrize("script, mutate, label", REGRESSIONS)
def test_regression_fails_its_floor(script, mutate, label):
    assert _failed_labels(script, mutate) == [label]


def test_every_failing_row_is_reported():
    mutate = _set(
        "crossover.size.flipped", False,
        "queries.Q5.oracle_match", False,
        "shed.shed_to_cpu", 0,
    )
    assert _failed_labels("hetero", mutate) == [
        "size crossover flipped", "Q5 oracle match", "shed to the CPU",
    ]


def test_finish_smoke_writes_then_reports_every_failure(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
    floors = [
        ("met", 2.0, ">=", 1.0),
        ("too slow", 0.5, ">=", 1.0),
        ("too high", 3, "<=", 2),
        ("diverged", False, "==", True),
    ]
    assert common.finish_smoke("probe_smoke.json", {"x": 1}, floors) == 1
    artifact = json.loads((tmp_path / "probe_smoke.json").read_text())
    assert artifact["x"] == 1
    assert artifact["floors"] == [
        {"label": label, "value": value, "op": op, "bound": bound}
        for label, value, op, bound in floors
    ]
    err = capsys.readouterr().err
    assert err.count("floor failed [probe_smoke.json]: ") == 3
    assert "too slow 0.5 is not >= 1" in err
    assert "too high 3 is not <= 2" in err
    assert "diverged False is not == True" in err
    assert common.finish_smoke("probe_smoke.json", {}, floors[:1]) == 0
