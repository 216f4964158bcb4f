"""Calibration appendix — the cost model behind every figure.

Dumps the constants the simulation rests on and the steady-state
throughputs they imply, for the default device and the V100 preset.
DESIGN.md points here for "why do these gaps have these magnitudes".
"""

from common import out_dir, run_once
from repro.bench import render_calibration_report, write_report
from repro.gpu import GTX_1080TI, TESLA_V100


def test_calibration_report(benchmark):
    def build() -> str:
        return "\n\n".join(
            render_calibration_report(spec)
            for spec in (GTX_1080TI, TESLA_V100)
        )

    text = run_once(benchmark, build)
    print("\n" + text)
    write_report("calibration", text, directory=out_dir())
    assert "boost.compute" in text
    assert "tesla-v100" in text
