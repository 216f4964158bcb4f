"""Extension — resident columns vs. streaming uploads.

The paper's commercial-systems framing (SQreamDB, BlazingDB) assumes hot
columns live on the device.  This benchmark contrasts the streaming
regime (every query re-uploads its scan columns) with a
:class:`~repro.query.session.GpuSession` (upload once, reuse), over a
mixed Q6+Q1 workload.
"""

from common import out_dir, run_once
from repro.bench import write_report
from repro.core import default_framework
from repro.gpu import Device
from repro.query import GpuSession, QueryExecutor
from repro.tpch import TpchGenerator, q1, q6

SCALE_FACTOR = 0.02
QUERIES_PER_KIND = 5


def test_ext_resident_columns(benchmark):
    framework = default_framework()
    catalog = TpchGenerator(scale_factor=SCALE_FACTOR, seed=13).generate()
    plans = [q6.plan(), q1.plan()] * QUERIES_PER_KIND

    def measure():
        streaming_backend = framework.create("thrust", Device())
        streaming = QueryExecutor(streaming_backend, catalog)
        streaming_ms = 0.0
        streaming_transfer = 0.0
        for plan in plans:
            report = streaming.execute(plan).report
            streaming_ms += report.simulated_ms
            streaming_transfer += report.breakdown()["transfer"] * 1e3

        session = GpuSession(framework.create("thrust", Device()), catalog)
        resident_ms = 0.0
        resident_transfer = 0.0
        for plan in plans:
            report = session.execute(plan).report
            resident_ms += report.simulated_ms
            resident_transfer += report.breakdown()["transfer"] * 1e3
        return (
            streaming_ms, streaming_transfer,
            resident_ms, resident_transfer,
            session.resident_bytes,
        )

    (streaming_ms, streaming_transfer, resident_ms, resident_transfer,
     resident_bytes) = run_once(benchmark, measure)
    text = "\n".join([
        f"== Extension: resident vs streaming columns "
        f"({len(plans)} queries, Q6+Q1 mix, SF {SCALE_FACTOR}, thrust) ==",
        f"  streaming: {streaming_ms:10.3f} ms total "
        f"({streaming_transfer:8.3f} ms in transfers)",
        f"  resident:  {resident_ms:10.3f} ms total "
        f"({resident_transfer:8.3f} ms in transfers, "
        f"{resident_bytes / 1e6:.1f} MB pinned)",
        f"  speedup: {streaming_ms / resident_ms:.2f}x "
        "(all of it recovered transfer time)",
    ])
    print("\n" + text)
    write_report("ext_resident", text, directory=out_dir())

    assert resident_ms < streaming_ms
    # Residual transfers = first-run uploads + per-query result downloads.
    assert resident_transfer < 0.3 * streaming_transfer
    # The saving equals the avoided transfer time (kernels unchanged).
    saving = streaming_ms - resident_ms
    transfer_saving = streaming_transfer - resident_transfer
    assert abs(saving - transfer_saving) < 0.05 * streaming_ms
