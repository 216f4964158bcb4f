"""Self-tests of the trajectory benchmark at ``--smoke`` size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/trajectory``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from measure import OTHER, Reference, attribute_layers
from repro.query import QueryExecutor
from repro.relational.column import Column
from repro.relational.table import Table
from repro.tpch import TpchGenerator

ROOT = Path(run.__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(name, seed=1, trace=False):
    return run.run_workload(name, seed, seconds=1, trace=trace, smoke=True)


@pytest.fixture(scope="module")
def plain():
    return {name: _smoke(name) for name in run.WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced():
    return {name: _smoke(name, trace=True) for name in run.WORKLOAD_NAMES}


def test_benchmark_json_matches_the_benchmark():
    assert SPEC["paths"] == ["benchmarks/trajectory"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.WORKLOAD_NAMES
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_every_metric_is_emitted_with_its_unit(plain, traced):
    for name in run.WORKLOAD_NAMES:
        for result, section in ((plain[name], "end_to_end"),
                                (traced[name], "per_layer")):
            assert result["correct"], result["details"]["errors"]
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    for result in plain.values():
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_plain_run_emits_no_host_layer_metrics(plain):
    for result in plain.values():
        names = set(result["metrics"]) | set(result["layers"])
        assert not any(name.startswith(("host.", "trace.")) for name in names)


def test_profile_attribution_covers_95_percent_of_self_time(traced):
    for result in traced.values():
        assert result["metrics"]["host.other_pct"]["value"] <= 5.0
        total = sum(
            entry["value"] for metric, entry in result["metrics"].items()
            if metric.startswith("host.")
        )
        assert total == pytest.approx(100.0)


def test_same_seed_repeats_simulated_metrics_and_requests(plain):
    again = _smoke("serve-rw")
    first = plain["serve-rw"]
    for metric in ("sim_ms_mean", "sim_ms_p90"):
        assert again["metrics"][metric] == first["metrics"][metric]

    def simulated(result):
        return {k: v for k, v in result["layers"].items()
                if not k.startswith("span.")}

    assert simulated(again) == simulated(first)
    for key in ("sequence_digest", "catalog_digest", "first_round"):
        assert again["details"][key] == first["details"][key]


def test_other_seed_changes_requests_not_catalog(plain):
    other = _smoke("serve-mixed", seed=2)
    first = plain["serve-mixed"]
    assert other["details"]["catalog_digest"] == first["details"]["catalog_digest"]
    assert other["details"]["sequence_digest"] != first["details"]["sequence_digest"]
    assert other["details"]["params"] != first["details"]["params"]


def test_corrupted_result_counts_toward_error_rate(monkeypatch, capsys):
    """One wrong result from the engine, after set-up, is one failure,
    and the run exits non-zero."""
    execute = QueryExecutor.execute
    compute = workloads.TieredSpill.compute_oracles
    armed = []

    def compute_then_arm(self, state):
        compute(self, state)
        armed.append(1)

    def corrupting(self, plan, result_name="result"):
        result = execute(self, plan, result_name)
        if armed and armed.pop():
            table = result.table
            columns = [
                Column(c.name, c.ctype, c.data[1:], c.dictionary)
                for c in (table.column(n) for n in table.column_names)
            ]
            return type(result)(Table(table.name, columns), result.report)
        return result

    monkeypatch.setattr(workloads.TieredSpill, "compute_oracles", compute_then_arm)
    monkeypatch.setattr(QueryExecutor, "execute", corrupting)
    code = run.main(["--workload", "tiered-spill", "--seed", "1",
                     "--seconds", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["failed"] == 1
    assert not result["correct"]


def test_host_metrics_take_per_operation_medians_and_scale_them():
    rounds = [
        workloads.Round(host_s=[0.01, 0.03, 0.02]),
        workloads.Round(host_s=[0.02, 0.01, 0.02]),
        workloads.Round(host_s=[0.01, 0.02, 0.50]),  # a slow phase
    ]
    plain = run.host_metrics(1.0, rounds, 1.0)
    # Per-operation medians: 10, 20 and 20 ms.
    assert plain["host_ops_per_s"] == pytest.approx(3 / 0.05)
    assert plain["host_ms_p50"] == pytest.approx(20.0)
    doubled = run.host_metrics(1.0, rounds, 2.0)
    assert doubled["setup_s"] == 2.0
    assert doubled["host_ops_per_s"] == pytest.approx(plain["host_ops_per_s"] / 2)
    assert doubled["host_ms_p90"] == pytest.approx(2 * plain["host_ms_p90"])

    never = Reference(every_s=math.inf)
    assert never.due() == 0.0 and never.samples_ms == []
    always = Reference(every_s=0.0)
    assert always.due() > 0.0
    assert always.scale() == pytest.approx(
        Reference.NOMINAL_MS / always.samples_ms[0]
    )


def test_vacuous_oracles_are_refused():
    # At SF 0.002 the default Q5 and Q8 parameters select no rows.
    catalog = TpchGenerator(scale_factor=0.002, seed=workloads.CATALOG_SEED).generate()
    with pytest.raises(RuntimeError, match="vacuous"):
        workloads.oracles(catalog, {})


def test_attribution_charges_outside_code_to_its_repro_caller():
    gpu = ("/x/src/repro/gpu/device.py", 1, "launch")
    core = ("/x/src/repro/core/backend.py", 1, "op")
    numpy_fn = ("/usr/lib/numpy/core.py", 1, "sort")
    builtin = ("~", 0, "<built-in method numpy.array>")
    root = ("/usr/lib/python3/threading.py", 1, "run")
    stats = {
        gpu: (1, 1, 1.0, 3.0, {}),
        core: (1, 1, 1.0, 4.0, {}),
        # numpy: 2 s of self time, 1.5 s of it under gpu, 0.5 s under core.
        numpy_fn: (2, 2, 2.0, 3.0, {gpu: (1, 1, 1.5, 2.0), core: (1, 1, 0.5, 1.0)}),
        # the builtin is only called from the numpy function.
        builtin: (1, 1, 1.0, 1.0, {numpy_fn: (1, 1, 1.0, 1.0)}),
        root: (1, 1, 0.5, 0.5, {}),
    }
    seconds, total = attribute_layers(stats)
    assert total == pytest.approx(5.5)
    assert seconds["gpu"] == pytest.approx(1.0 + 1.5 + 0.75)
    assert seconds["core"] == pytest.approx(1.0 + 0.5 + 0.25)
    assert seconds[OTHER] == pytest.approx(0.5)


def test_command_line_output(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/trajectory/run.py"),
         "--workload", "serve-rw", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0

    # Without the program next to it, the benchmark fails and prints no
    # result.
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "benchmarks/trajectory", bare / "benchmarks/trajectory",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/trajectory/run.py", "--workload",
         "serve-rw", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
