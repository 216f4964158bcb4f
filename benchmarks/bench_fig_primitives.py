"""Fig. P (inferred) — parallel primitives: prefix sum, scatter, gather,
product.

The paper studies these because they materialise selection/projection
results ("commonly used for materializing final values").
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import (
    render_series,
    run_simple_sweep,
    scatter_permutation,
    summarize_winners,
    uniform_floats,
    uniform_ints,
    write_report,
)

SIZES = (1 << 18, 1 << 20, 1 << 22)


def _setup_prefix_sum(backend, n):
    return backend.upload(uniform_ints(n, low=0, high=100))


def _run_prefix_sum(backend, handle):
    backend.prefix_sum(handle)


def _setup_gather(backend, n):
    return (
        backend.upload(uniform_floats(n)),
        backend.upload(scatter_permutation(n)),
    )


def _run_gather(backend, state):
    backend.gather(state[0], state[1])


def _setup_scatter(backend, n):
    return (
        backend.upload(uniform_floats(n)),
        backend.upload(scatter_permutation(n)),
        n,
    )


def _run_scatter(backend, state):
    backend.scatter(state[0], state[1], state[2])


def _setup_product(backend, n):
    return (
        backend.upload(uniform_floats(n, seed=21)),
        backend.upload(uniform_floats(n, seed=22)),
    )


def _run_product(backend, state):
    backend.product(state[0], state[1])


PRIMITIVES = (
    ("prefix_sum", _setup_prefix_sum, _run_prefix_sum),
    ("gather", _setup_gather, _run_gather),
    ("scatter", _setup_scatter, _run_scatter),
    ("product", _setup_product, _run_product),
)


def test_fig_primitives(benchmark):
    def sweep_all():
        results = {}
        for name, setup, run in PRIMITIVES:
            results[name] = run_simple_sweep(
                f"Fig. P: {name} vs input size (warm)",
                ALL_GPU, SIZES, setup, run,
            )
        return results

    results = run_once(benchmark, sweep_all)
    parts = []
    for name, result in results.items():
        parts.append(render_series(result))
        parts.append(summarize_winners(result))
    text = "\n\n".join(parts)
    print("\n" + text)
    write_report("fig_primitives", text, directory=out_dir())
    # Uncoalesced scatter/gather cost more than the streaming product.
    for backend in ALL_GPU:
        assert results["gather"].ms(backend)[-1] > (
            results["product"].ms(backend)[-1]
        )
    # Handwritten single-pass scan beats the libraries' 3-phase scans.
    assert results["prefix_sum"].ms("handwritten")[-1] < (
        results["prefix_sum"].ms("thrust")[-1]
    )
