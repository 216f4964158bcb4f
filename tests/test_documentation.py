"""Meta-tests: documentation coverage of the public surface."""

import ast
import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import repro

MODULES = [
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
]
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


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


class TestModuleSeams:
    @pytest.mark.parametrize("package", ["query", "distributed", "hetero"])
    def test_no_private_names_imported(self, package):
        """A package reaches other modules only through public names."""
        root = pathlib.Path(repro.__file__).parent / package
        private = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                    node.module or ""
                ).startswith("repro."):
                    private += [
                        f"{path.name}:{node.lineno} {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                    ]
        assert private == []

    def test_no_private_attributes_of_other_modules(self):
        """``x._name`` only on ``self``, ``cls`` or ``super()``, or for a
        name the module itself defines (a function, class, variable or
        attribute it assigns): execution layers call each other's public
        methods, never their private ones."""
        root = pathlib.Path(repro.__file__).parent
        reaches = []
        for package in ("query", "hetero", "storage", "serve", "cluster",
                        "distributed"):
            for path in sorted((root / package).rglob("*.py")):
                tree = ast.parse(path.read_text())
                defined = set()
                for node in ast.walk(tree):
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                        defined.add(node.name)
                    elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store
                    ):
                        defined.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store
                    ):
                        defined.add(node.attr)
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Attribute):
                        continue
                    name, owner = node.attr, node.value
                    if (
                        not name.startswith("_")
                        or (name.startswith("__") and name.endswith("__"))
                        or name in defined
                        or isinstance(owner, ast.Name)
                        and owner.id in ("self", "cls")
                        or isinstance(owner, ast.Call)
                        and isinstance(owner.func, ast.Name)
                        and owner.func.id == "super"
                    ):
                        continue
                    reaches.append(
                        f"{path.relative_to(root)}:{node.lineno} "
                        f"{ast.unparse(node)}"
                    )
        assert reaches == []


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

    def test_every_cited_report_is_committed(self):
        """Each ``benchmarks/out/...`` report the docs point a reader at
        is in the repo (``<name>.txt`` placeholders are not paths)."""
        cited = {
            match
            for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
            for match in re.findall(r"benchmarks/out/[\w.-]+", (ROOT / doc).read_text())
        }
        assert cited
        assert sorted(path for path in cited if not (ROOT / path).is_file()) == []


class TestReadme:
    def test_every_cli_example_parses(self):
        """Each ``python -m repro ...`` line of README's bash blocks is
        accepted by the CLI parser (parsed only, never run)."""
        from repro.cli import build_parser

        root = pathlib.Path(__file__).resolve().parent.parent
        text = (root / "README.md").read_text()
        commands = []
        for block in re.findall(r"```bash\n(.*?)```", text, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if words[:3] == ["python", "-m", "repro"]:
                    commands.append(words[3:])
        assert commands
        for words in commands:
            build_parser().parse_args(words)  # a stale flag exits 2


def _job(ci_text, name):
    """The text of one top-level job of ci.yml, header included."""
    start = ci_text.index(f"\n  {name}:\n")
    following = re.search(r"\n  [\w-]+:\n", ci_text[start + 1:])
    if following is None:
        return ci_text[start:]
    return ci_text[start:start + 1 + following.start()]


class TestCiWorkflow:
    """Text-level lint of .github/workflows/ci.yml (no YAML dependency):
    zero duplicated setup blocks, a concurrency group, one smoke matrix
    whose scripts enforce their own benchmark floors, and a timeout on
    every job."""

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

    def test_benchmark_smoke_runs_the_join_benchmarks(self, ci_text):
        """Tier-1 collects only ``tests``; these assert the paper's join
        shapes on the join kernels every backend shares."""
        job = _job(ci_text, "benchmark-smoke")
        for script in (
            "bench_fig_join.py", "bench_fig_join_hash.py",
            "bench_fig_tpch_joins.py",
        ):
            assert f"benchmarks/{script}" in job, script

    def test_benchmark_smoke_runs_the_full_tiered_grid(self, ci_text):
        """The ``smoke`` lane runs only the --smoke Q1/Q6 mini-grid; the
        pytest step runs the full Q1/Q6/Q3 grid, spills and Q3's join
        over the store included."""
        steps = _job(ci_text, "benchmark-smoke").split("\n      - ")
        (step,) = [s for s in steps if "python -m pytest" in s and "benchmarks/bench_" in s]
        assert "benchmarks/bench_fig_tiered.py" in step

    def test_every_job_has_a_timeout(self, ci_text):
        jobs = re.findall(r"\n  ([\w-]+):\n", ci_text[ci_text.index("\njobs:\n"):])
        assert jobs and len(jobs) == ci_text.count("runs-on:")
        for name in jobs:
            minutes = re.search(r"\n    timeout-minutes: (\d+)\n", _job(ci_text, name))
            assert minutes and 0 < int(minutes.group(1)) <= 30, name


@pytest.fixture(scope="module")
def compare():
    """``benchmarks/trajectory/compare.py``, executed from its file."""
    path = ROOT / "benchmarks" / "trajectory" / "compare.py"
    spec = importlib.util.spec_from_file_location("trajectory_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda path: path.name)
class TestBenchRecords:
    """Every committed ``BENCH_*.json`` re-derives its verdicts, and those
    of each of its ``ablations``, from its own records with ``compare.py``.
    Each verdict is recomputed under the bound stored with it, never
    ``BENCHMARK.json``'s, so a later bound change breaks no old file."""

    @staticmethod
    def _spec(verdicts):
        better = {
            metric["name"]: metric["better"]
            for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        }
        return {"end_to_end": [
            {"name": name, "unit": stored["unit"], "better": better[name],
             "bound": float(stored["bound"].rstrip("%")) / 100}
            for name, stored in verdicts.items()
        ]}

    def test_verdicts_recompute_from_the_records(self, path, compare):
        bench = json.loads(path.read_text())
        entries = list(bench["workloads"].items()) + [
            item for ablation in bench.get("ablations", [])
            for item in ablation["workloads"].items()
        ]
        for workload, entry in entries:
            # At least 10 complete pairs, the side that runs first alternating.
            pairs = compare.paired(entry["records"], workload, 0)
            spec = self._spec(entry["verdicts"])
            for name, unit, parent, change, wins, bound, verdict in compare.end_to_end_rows(
                pairs, spec
            ):
                assert entry["verdicts"][name] == {
                    "unit": unit, "parent_median_q1_q3": parent,
                    "change_median_q1_q3": change, "wins": wins, "bound": bound,
                    "verdict": verdict,
                }, (workload, name)
            assert entry["report"] == compare.report(entry["records"], spec).split("\n")
            simulated = [name for name in entry["verdicts"] if name.startswith(compare.SIMULATED)]
            for parent, change in pairs:
                for name in simulated:
                    assert parent["metrics"][name] == change["metrics"][name], workload
            failed = {
                "parent": sum(parent["failed"] for parent, _change in pairs),
                "change": sum(change["failed"] for _parent, change in pairs),
            }
            assert entry["failed"] == failed
            assert failed["change"] <= failed["parent"], workload

    def test_claimed_gain_recomputes(self, path, compare):
        bench = json.loads(path.read_text())
        claim = bench.get("claim")
        if not claim:
            return
        entry = bench["workloads"][claim["workload"]]
        pairs = compare.paired(entry["records"], claim["workload"], 0)
        verdicts = {
            row[0]: row[-1]
            for row in compare.end_to_end_rows(pairs, self._spec(entry["verdicts"]))
        }
        assert claim["verdict"] == verdicts[claim["metric"]] == compare.GAIN
