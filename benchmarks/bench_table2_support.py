"""Table II — mapping of library functions to database operators.

Regenerates the support matrix from the live backends and asserts it
matches the paper cell-for-cell (support levels).
"""

from common import LIBRARIES, out_dir, run_once
from repro.bench import write_report
from repro.core import compare_with_paper, default_framework, render_table_ii


def test_table2_support_matrix(benchmark):
    framework = default_framework()
    backends = [framework.create(name) for name in LIBRARIES]

    def build() -> str:
        return render_table_ii(backends)

    text = run_once(benchmark, build)
    mismatches = compare_with_paper(backends)
    assert mismatches == [], mismatches
    print("\n" + text)
    write_report("table2_support", text, directory=out_dir())


def test_table2_extended_with_cudf(benchmark):
    """Extension: the same matrix with the cuDF-class backend appended —
    the hash-join row flips from three dashes to full support."""
    framework = default_framework()
    backends = [
        framework.create(name) for name in LIBRARIES + ("cudf",)
    ]

    def build() -> str:
        return render_table_ii(backends)

    text = run_once(benchmark, build)
    print("\n" + text)
    write_report("table2_support_extended", text, directory=out_dir())
    hash_row = next(
        line for line in text.splitlines() if line.startswith("Hash Join")
    )
    assert "inner_join" in hash_row
    assert hash_row.count(" - ") >= 2  # the studied libraries still lack it
