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


def _job(ci_text, name):
    """The text of one top-level job of ci.yml, header included."""
    start = ci_text.index(f"\n  {name}:\n")
    following = re.search(r"\n  [\w-]+:\n", ci_text[start + 1:])
    if following is None:
        return ci_text[start:]
    return ci_text[start:start + 1 + following.start()]


class TestCiWorkflow:
    """Text-level lint of .github/workflows/ci.yml (no YAML dependency):
    zero duplicated setup blocks, a concurrency group, and one smoke
    matrix whose scripts enforce their own benchmark floors."""

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

    def test_every_smoke_script_is_a_matrix_entry(self, ci_text):
        root = pathlib.Path(__file__).resolve().parent.parent
        smoke_scripts = {
            path.name
            for path in (root / "benchmarks").glob("bench_*.py")
            if "smoke_main(" in path.read_text()
        }
        job = _job(ci_text, "smoke")
        entries = set(re.findall(r"script: (bench_\w+\.py)", job))
        assert smoke_scripts and entries == smoke_scripts
        # Every smoke writes outside the checkout, never to its out/.
        assert 'REPRO_BENCH_OUT="$RUNNER_TEMP/smoke"' in job
        assert "benchmarks/out/fig_" not in ci_text

    def test_smoke_artifacts_upload_even_when_a_floor_fails(self, ci_text):
        steps = _job(ci_text, "smoke").split("\n      - ")
        (upload,) = [s for s in steps if "actions/upload-artifact" in s]
        assert "if: always()" in upload
        # The floors live in the smoke scripts; the old separate gate
        # script is gone from every workflow, script, test and doc.
        root = pathlib.Path(__file__).resolve().parent.parent
        files = [root / "README.md", root / "EXPERIMENTS.md"]
        for folder, pattern in (
            (".github", "*.yml"), ("benchmarks", "*.py"), ("tests", "*.py")
        ):
            files += (root / folder).rglob(pattern)
        gate = "check" "_floors"
        assert [f for f in files if gate in f.read_text()] == []

    def test_benchmark_smoke_runs_the_trajectory_self_tests(self, ci_text):
        job = _job(ci_text, "benchmark-smoke")
        assert "python -m pytest -q benchmarks/trajectory" in job
