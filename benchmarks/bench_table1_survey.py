"""Table I — the survey of 43 GPU libraries.

Regenerates the survey table, the category histogram the paper quotes
(13 math, 7 image/video, 5 database operators), and the three-library
selection rationale.
"""

from common import out_dir, run_once
from repro.bench import write_report
from repro.survey import (
    render_category_histogram,
    render_selection_rationale,
    render_table_i,
    verify_against_paper,
)


def test_table1_survey(benchmark):
    def build() -> str:
        parts = [
            render_table_i(),
            "",
            render_category_histogram(),
            "",
            render_selection_rationale(),
        ]
        return "\n".join(parts)

    text = run_once(benchmark, build)
    assert verify_against_paper() == []
    print("\n" + text)
    write_report("table1_survey", text, directory=out_dir())
