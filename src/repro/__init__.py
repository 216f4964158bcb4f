"""repro — reproduction of *Analysis of GPU-Libraries for Rapid
Prototyping Database Operations* (ICDE 2021) on a simulated GPU.

Public API tour:

* :mod:`repro.gpu` — the simulated GPU device (clock, memory, cost model);
* :mod:`repro.libs` — emulations of Thrust, Boost.Compute, ArrayFire;
* :mod:`repro.core` — the paper's plug-in operator framework and the five
  built-in backends, plus the Table II support matrix;
* :mod:`repro.relational` — column-store tables;
* :mod:`repro.query` — logical plans, fluent builder, executor;
* :mod:`repro.tpch` — TPC-H generator and queries Q1/Q3/Q4/Q6;
* :mod:`repro.survey` — the 43-library survey (Table I);
* :mod:`repro.bench` — sweep runner and report renderers.

Importing the package sets the process's host-memory policy once
(:func:`repro.host_memory.keep_freed_memory`): on glibc, freed NumPy
temporaries stay in the heap instead of going back to the kernel.

Quickstart::

    from repro import Device, default_framework, scan, QueryExecutor
    from repro.tpch import TpchGenerator, q6

    catalog = TpchGenerator(scale_factor=0.01).generate()
    backend = default_framework().create("arrayfire")
    result = QueryExecutor(backend, catalog).execute(q6.plan())
    print(result.table.head())
    print(f"simulated time: {result.report.simulated_ms:.3f} ms")
"""

from repro.core import (
    GPU_BACKENDS,
    STUDIED_LIBRARIES,
    GpuOperatorFramework,
    Operator,
    OperatorBackend,
    SupportLevel,
    default_framework,
    render_table_ii,
)
from repro.errors import (
    ReproError,
    UnsupportedOperatorError,
)
from repro.gpu import Device, DeviceSpec, get_spec
from repro.host_memory import keep_freed_memory
from repro.query import ExecutionResult, QueryExecutor, scan
from repro.relational import Column, Table

__version__ = "1.0.0"

keep_freed_memory()

__all__ = [
    "__version__",
    "Device",
    "DeviceSpec",
    "get_spec",
    "GpuOperatorFramework",
    "default_framework",
    "OperatorBackend",
    "Operator",
    "SupportLevel",
    "STUDIED_LIBRARIES",
    "GPU_BACKENDS",
    "render_table_ii",
    "QueryExecutor",
    "ExecutionResult",
    "scan",
    "Column",
    "Table",
    "ReproError",
    "UnsupportedOperatorError",
]
