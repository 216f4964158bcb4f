"""Fig. R (inferred) — reduction (sum over a column).

The simplest operator: every library has full support (Table II), so the
figure isolates pure kernel-tier efficiency plus per-launch overheads.
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import (
    render_all,
    run_simple_sweep,
    uniform_floats,
    write_report,
)

SIZES = (1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)


def _setup(backend, n):
    return backend.upload(uniform_floats(n))


def _run(backend, handle):
    backend.reduction(handle, "sum")


def test_fig_reduction_size_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            "Fig. R: reduction (sum) vs input size (warm)",
            ALL_GPU, SIZES, _setup, _run,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_reduction", text, directory=out_dir())
    last = {name: result.ms(name)[-1] for name in ALL_GPU}
    # Memory-bound operator: ordering follows memory-tier efficiency.
    assert last["handwritten"] <= last["thrust"]
    assert last["thrust"] < last["boost.compute"]
    # Large-n scaling is linear (last/first ≈ size ratio within 2x).
    for name in ALL_GPU:
        series = result.ms(name)
        ratio = series[-1] / series[-2]
        assert 2.0 < ratio < 8.0
