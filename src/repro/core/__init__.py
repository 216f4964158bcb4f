"""The paper's primary contribution: the pluggable operator framework.

Contents:

* :class:`~repro.core.framework.GpuOperatorFramework` — plug-in registry;
* :class:`~repro.core.backend.OperatorBackend` — the operator interface
  (Table II's operator set);
* the five built-in backends (Thrust, Boost.Compute, ArrayFire,
  handwritten CUDA, CPU reference);
* the predicate AST for selections;
* the Table II support-matrix generator.
"""

from repro.core.arrayfire_backend import ArrayFireBackend
from repro.core.backend import (
    AGGREGATES,
    Operator,
    OperatorBackend,
    OperatorSupport,
    SupportLevel,
    join_reference,
)
from repro.core.boost_backend import BoostComputeBackend
from repro.core.compiled_backend import FUSION_MODES, CompiledBackend
from repro.core.cpu_backend import CpuReferenceBackend
from repro.core.cudf_backend import CudfLikeBackend
from repro.core.framework import (
    EXTENSION_BACKENDS,
    GPU_BACKENDS,
    STUDIED_LIBRARIES,
    GpuOperatorFramework,
    default_framework,
)
from repro.core.handwritten_backend import HandwrittenBackend
from repro.core.hash_extension import (
    ArrayFireHashBackend,
    BoostComputeHashBackend,
    HashJoinExtensionMixin,
    ThrustHashBackend,
)
from repro.core.predicate import (
    And,
    Between,
    Compare,
    CompareCols,
    InSet,
    Not,
    Or,
    Predicate,
    col_between,
    col_cmp,
    col_eq,
    col_ge,
    col_gt,
    col_le,
    col_lt,
    col_ne,
    conjunction,
    disjunction,
)
from repro.core.stl_backend import StlStyleBackend
from repro.core.support import (
    PAPER_TABLE_II,
    TABLE_II_LIBRARIES,
    TABLE_II_ROWS,
    build_support_matrix,
    compare_with_paper,
    render_table_ii,
)
from repro.core.thrust_backend import ThrustBackend

__all__ = [
    "GpuOperatorFramework",
    "default_framework",
    "STUDIED_LIBRARIES",
    "GPU_BACKENDS",
    "EXTENSION_BACKENDS",
    "OperatorBackend",
    "Operator",
    "OperatorSupport",
    "SupportLevel",
    "AGGREGATES",
    "join_reference",
    "ThrustBackend",
    "BoostComputeBackend",
    "ArrayFireBackend",
    "HandwrittenBackend",
    "CompiledBackend",
    "FUSION_MODES",
    "CpuReferenceBackend",
    "CudfLikeBackend",
    "ThrustHashBackend",
    "BoostComputeHashBackend",
    "ArrayFireHashBackend",
    "HashJoinExtensionMixin",
    "StlStyleBackend",
    "Predicate",
    "Compare",
    "CompareCols",
    "Between",
    "InSet",
    "And",
    "Or",
    "Not",
    "col_lt",
    "col_le",
    "col_gt",
    "col_ge",
    "col_eq",
    "col_ne",
    "col_between",
    "col_cmp",
    "conjunction",
    "disjunction",
    "PAPER_TABLE_II",
    "TABLE_II_ROWS",
    "TABLE_II_LIBRARIES",
    "build_support_matrix",
    "compare_with_paper",
    "render_table_ii",
]
