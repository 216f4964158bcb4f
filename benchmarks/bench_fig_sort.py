"""Fig. O (inferred) — sort and sort-by-key.

Radix-sort shootout: Thrust (8-bit digits, CUDA tier) vs. Boost.Compute
(4-bit digits, OpenCL tier — twice the passes) vs. ArrayFire (8-bit
digits + out-of-place copy-out) vs. a tuned handwritten sort.
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import (
    render_all,
    run_simple_sweep,
    uniform_ints,
    write_report,
)

SIZES = (1 << 16, 1 << 18, 1 << 20, 1 << 22)


def _setup_sort(backend, n):
    return backend.upload(uniform_ints(n))


def _run_sort(backend, handle):
    backend.sort(handle)


def _setup_sort_by_key(backend, n):
    keys = uniform_ints(n, seed=11)
    values = uniform_ints(n, seed=12)
    return backend.upload(keys), backend.upload(values)


def _run_sort_by_key(backend, state):
    backend.sort_by_key(state[0], state[1])


def test_fig_sort_size_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            "Fig. O-a: sort (int32 keys) vs input size (warm)",
            ALL_GPU, SIZES, _setup_sort, _run_sort,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_sort", text, directory=out_dir())
    last = {name: result.ms(name)[-1] for name in ALL_GPU}
    assert last["thrust"] < last["arrayfire"]
    assert last["thrust"] < last["boost.compute"]
    # Boost's 4-bit digit passes are the biggest structural handicap.
    assert last["boost.compute"] > 2.0 * last["thrust"]


def test_fig_sort_by_key_size_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            "Fig. O-b: sort-by-key (int32/int32) vs input size (warm)",
            ALL_GPU, SIZES, _setup_sort_by_key, _run_sort_by_key,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_sort_by_key", text, directory=out_dir())
    for name in ALL_GPU:
        assert all(ms is not None for ms in result.ms(name))
    # Carrying a payload costs more than sorting keys alone.
    keys_only = run_simple_sweep(
        "keys-only", ("thrust",), (SIZES[-1],), _setup_sort, _run_sort
    )
    assert result.ms("thrust")[-1] > keys_only.ms("thrust")[0]
