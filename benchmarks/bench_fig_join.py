"""Fig. J (inferred) — join algorithms across libraries.

Two views:

* the only join every library can express (nested loops via
  ``for_each_n`` / batched gfor) swept over the outer-relation size;
* the algorithm ladder at a fixed size — library NLJ vs. the composed
  sort-merge join vs. the handwritten hash join that **no library can
  express** (the paper's headline "unused tuning potential").
"""

from common import ALL_GPU, out_dir, run_once
from repro.bench import (
    fk_join_keys,
    render_all,
    run_simple_sweep,
    write_report,
)
from repro.core import default_framework
from repro.errors import UnsupportedOperatorError
from repro.gpu import Device

OUTER_SIZES = (1 << 12, 1 << 14, 1 << 16)
INNER_SIZE = 1 << 14
LADDER_OUTER = 1 << 17
LADDER_INNER = 1 << 15


def _setup(backend, n_outer):
    left, right = fk_join_keys(n_outer, INNER_SIZE)
    return backend.upload(left), backend.upload(right)


def _run_nlj(backend, state):
    backend.nested_loop_join(*state)


def test_fig_join_nlj_size_sweep(benchmark):
    def sweep():
        return run_simple_sweep(
            f"Fig. J-a: nested-loops join vs outer size (inner={INNER_SIZE})",
            ALL_GPU, OUTER_SIZES, _setup, _run_nlj,
        )

    result = run_once(benchmark, sweep)
    text = render_all(result, baseline="handwritten")
    print("\n" + text)
    write_report("fig_join_nlj", text, directory=out_dir())
    last = {name: result.ms(name)[-1] for name in ALL_GPU}
    # ArrayFire's partial-support NLJ (materialised boolean matrices)
    # trails the STL libraries' for_each_n loop.
    assert last["arrayfire"] > last["thrust"]


def test_fig_join_algorithm_ladder(benchmark):
    """NLJ vs composed merge join vs hash join at one size."""
    framework = default_framework()
    left, right = fk_join_keys(LADDER_OUTER, LADDER_INNER)

    def measure(backend_name, method):
        backend = framework.create(backend_name, Device())
        handles = backend.upload(left), backend.upload(right)
        runner = getattr(backend, method)
        try:
            runner(*handles)  # warm (compiles for boost)
        except UnsupportedOperatorError:
            return None
        t0 = backend.device.clock.now
        runner(*handles)
        return (backend.device.clock.now - t0) * 1e3

    def ladder():
        rows = []
        for name in ALL_GPU:
            for method in ("nested_loop_join", "merge_join", "hash_join"):
                rows.append((name, method, measure(name, method)))
        return rows

    rows = run_once(benchmark, ladder)
    lines = [
        f"== Fig. J-b: join algorithm ladder "
        f"(outer={LADDER_OUTER}, inner={LADDER_INNER}, FK join, warm) ==",
        f"{'backend':>16}  {'algorithm':>18}  {'simulated ms':>14}",
    ]
    timings = {}
    for name, method, ms in rows:
        text_ms = "n/a (Table II: unsupported)" if ms is None else f"{ms:14.4f}"
        lines.append(f"{name:>16}  {method:>18}  {text_ms}")
        timings[(name, method)] = ms
    nlj = timings[("thrust", "nested_loop_join")]
    hash_join = timings[("handwritten", "hash_join")]
    lines.append(
        f"hash join speedup over library NLJ: {nlj / hash_join:10.1f}x "
        "(the paper's 'unused tuning potential')"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_join_ladder", text, directory=out_dir())
    # Libraries cannot hash-join; the expert kernel runs away with it.
    for library in ("thrust", "boost.compute", "arrayfire"):
        assert timings[(library, "hash_join")] is None
    assert nlj / hash_join > 100.0
