"""Meta-tests: documentation coverage of the public surface."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = [
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
]


class TestDocstrings:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_every_module_has_a_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_functions_and_classes_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or inspect.isclass(member)):
                continue
            if getattr(member, "__module__", None) != module_name:
                continue  # re-exports are documented at their home
            if not inspect.getdoc(member):
                undocumented.append(name)
        assert not undocumented, (
            f"{module_name}: missing docstrings on {undocumented}"
        )

    def test_all_public_methods_of_backend_interface_documented(self):
        from repro.core.backend import OperatorBackend

        undocumented = [
            name
            for name, member in vars(OperatorBackend).items()
            if not name.startswith("_")
            and callable(member)
            and not inspect.getdoc(member)
        ]
        assert not undocumented


class TestProjectLayout:
    def test_deliverable_files_exist(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        for required in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                         "pyproject.toml"):
            assert (root / required).exists(), required

    def test_at_least_three_examples(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        examples = list((root / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert any(e.name == "quickstart.py" for e in examples)

    def test_one_bench_per_table_and_figure(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        benches = {p.name for p in (root / "benchmarks").glob("bench_*.py")}
        required = {
            "bench_table1_survey.py", "bench_table2_support.py",
            "bench_fig_selection.py", "bench_fig_conjunction.py",
            "bench_fig_join.py", "bench_fig_groupby.py",
            "bench_fig_reduction.py", "bench_fig_sort.py",
            "bench_fig_primitives.py", "bench_fig_tpch_q6.py",
            "bench_fig_tpch_q1.py", "bench_fig_tpch_joins.py",
            "bench_fig_breakdown.py", "bench_fig_transfer.py",
            "bench_ablation_fusion.py", "bench_ablation_compile_cache.py",
            "bench_fig_fused_pipeline.py",
        }
        assert required <= benches


class TestCiWorkflow:
    """Text-level lint of .github/workflows/ci.yml (no YAML dependency):
    the ISSUE-6 CI invariants — zero duplicated setup blocks, a
    concurrency group, the fused fast lane, and the floor gate."""

    @pytest.fixture
    def ci_text(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        return (root / ".github" / "workflows" / "ci.yml").read_text()

    def test_setup_boilerplate_lives_in_the_composite_action(self, ci_text):
        root = pathlib.Path(__file__).resolve().parent.parent
        action = root / ".github" / "actions" / "setup-repro" / "action.yml"
        assert action.exists()
        action_text = action.read_text()
        assert "actions/setup-python" in action_text
        assert 'pip install -e ".[test]"' in action_text
        # The workflow itself carries ZERO copies of the boilerplate...
        assert "actions/setup-python" not in ci_text
        assert "pip install -e" not in ci_text
        # ...every job goes through the composite instead (checkout must
        # stay per-job: a local action only resolves after checkout).
        jobs = ci_text.count("runs-on:")
        assert ci_text.count("./.github/actions/setup-repro") == jobs
        assert ci_text.count("actions/checkout") == jobs

    def test_concurrency_cancels_superseded_runs(self, ci_text):
        assert "\nconcurrency:" in ci_text
        assert "cancel-in-progress: true" in ci_text

    def test_fused_fast_lane(self, ci_text):
        assert "tests/query/test_pipeline.py" in ci_text
        assert "tests/query/test_compiled_backend.py" in ci_text
        assert "bench_fig_fused_pipeline.py" in ci_text
        assert "fused-smoke-metrics" in ci_text

    def test_smoke_lanes_write_outside_the_checkout(self, ci_text):
        # Every benchmark smoke redirects through REPRO_BENCH_OUT; no
        # lane uploads smoke JSON from the checkout's benchmarks/out.
        for lane in ("serve", "scaleout", "fused", "tpch", "cluster",
                     "hetero"):
            assert f'REPRO_BENCH_OUT="$RUNNER_TEMP/{lane}"' in ci_text
            assert f"runner.temp }}}}/{lane}/fig_" in ci_text
        assert "benchmarks/out/fig_" not in ci_text

    def test_sql_fast_lane(self, ci_text):
        assert "tests/sql" in ci_text
        assert "tests/tpch/test_sql_queries.py" in ci_text
        assert "tests/tpch/test_query_coverage.py" in ci_text
        assert "bench_fig_tpch_suite.py" in ci_text
        assert "tpch-smoke-metrics" in ci_text
        # The suite floors are gated inside the lane itself.
        assert "--require tpch" in ci_text

    def test_cluster_fast_lane(self, ci_text):
        assert "tests/cluster" in ci_text
        assert "tests/distributed/test_serve_group.py" in ci_text
        assert "bench_fig_cluster.py" in ci_text
        assert "cluster-smoke-metrics" in ci_text
        # The cluster floors are gated inside the lane itself.
        assert "--require cluster" in ci_text

    def test_hetero_fast_lane(self, ci_text):
        assert "tests/hetero" in ci_text
        assert "tests/serve/test_shed_to_cpu.py" in ci_text
        assert "bench_fig_hetero.py" in ci_text
        assert "hetero-smoke-metrics" in ci_text
        # The hetero floors are gated inside the lane itself.
        assert "--require hetero" in ci_text

    def test_benchmark_smoke_runs_the_trajectory_self_tests(self, ci_text):
        start = ci_text.index("\n  benchmark-smoke:\n")
        following = re.search(r"\n  [\w-]+:\n", ci_text[start + 1:])
        job = ci_text[start:] if following is None else (
            ci_text[start:start + 1 + following.start()]
        )
        assert "python -m pytest -q benchmarks/trajectory" in job

    def test_floor_gate_runs_after_the_smoke_lanes(self, ci_text):
        assert "benchmarks/check_floors.py" in ci_text
        assert "needs: [serve, distributed, fused]" in ci_text
        assert "actions/download-artifact" in ci_text
