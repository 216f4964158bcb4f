"""Transfer figure (inferred) — PCIe transfer share of operator time.

The paper's Section II notes that chained library calls cause "unwanted
intermediate data movements"; this figure quantifies the *edge*
transfers: how the one-time column upload compares to the on-device
operator time, per input size.  Small inputs are transfer-dominated,
which is why GPU offloading only pays off beyond a size threshold.
"""

from common import out_dir, run_once
from repro.bench import selection_workload, write_report
from repro.core import ThrustBackend, col_lt
from repro.gpu import Device

SIZES = (1 << 14, 1 << 17, 1 << 20, 1 << 23)


def test_fig_transfer_vs_compute(benchmark):
    def sweep():
        rows = []
        for n in SIZES:
            backend = ThrustBackend(Device())
            workload = selection_workload(n, 0.1)
            device = backend.device
            t0 = device.clock.now
            handle = backend.upload(workload.data)
            upload_ms = (device.clock.now - t0) * 1e3
            predicate = col_lt("x", workload.threshold)
            backend.selection({"x": handle}, predicate)  # warm
            t0 = device.clock.now
            backend.selection({"x": handle}, predicate)
            op_ms = (device.clock.now - t0) * 1e3
            rows.append((n, upload_ms, op_ms))
        return rows

    rows = run_once(benchmark, sweep)
    lines = [
        "== Transfer vs compute: column upload against one warm selection "
        "(thrust) ==",
        f"{'n':>12}  {'upload ms':>12}  {'selection ms':>14}  "
        f"{'upload share':>14}",
    ]
    for n, upload_ms, op_ms in rows:
        share = upload_ms / (upload_ms + op_ms)
        lines.append(
            f"{n:12d}  {upload_ms:12.4f}  {op_ms:14.4f}  {share:13.1%}"
        )
    lines.append(
        "(PCIe is ~35x slower per byte than device DRAM: once sizes "
        "amortise kernel-launch overheads, the one-time upload dominates a "
        "single operator pass — the reason resident columnar data is the "
        "GPU DBMS norm)"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_report("fig_transfer", text, directory=out_dir())

    # At small n the operator's fixed launch costs dominate; at large n
    # upload dominates and its share keeps growing with size.
    shares = [upload / (upload + op) for _n, upload, op in rows]
    assert all(a < b for a, b in zip(shares, shares[1:]))
    assert shares[-1] > 0.7
    assert rows[-1][1] > rows[-1][2]
