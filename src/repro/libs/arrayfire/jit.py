"""ArrayFire JIT engine: expression trees and kernel fusion.

ArrayFire's signature design is *lazy evaluation*: element-wise operations
(``a*b + c > d``) build an expression tree instead of launching kernels.
When a result is needed (explicit ``eval()``, a reduction, a sort, host
readback), the tree is fused into a **single** generated kernel, compiled
once per tree *shape* (NVRTC), and cached for the process lifetime.

Fusion is why ArrayFire wins on selection-style pipelines in the paper's
measurements: a conjunctive predicate over k columns is one kernel reading
each column once, where eager libraries launch k+ kernels and materialise
intermediates.  The flip side is JIT compilation latency on first use —
both effects are modelled here and isolated by the fusion ablation
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.errors import ExpressionError

#: op name -> (numpy implementation, per-element flops, result kind)
#: result kind: "same" keeps the promoted operand dtype, "bool" yields bool.
_OP_TABLE: Dict[str, Tuple[Callable[..., np.ndarray], float, str]] = {
    "add": (np.add, 1.0, "same"),
    "sub": (np.subtract, 1.0, "same"),
    "mul": (np.multiply, 1.0, "same"),
    "div": (np.divide, 4.0, "same"),
    "mod": (np.mod, 4.0, "same"),
    "neg": (np.negative, 1.0, "same"),
    "abs": (np.abs, 1.0, "same"),
    "min2": (np.minimum, 1.0, "same"),
    "max2": (np.maximum, 1.0, "same"),
    "lt": (np.less, 1.0, "bool"),
    "le": (np.less_equal, 1.0, "bool"),
    "gt": (np.greater, 1.0, "bool"),
    "ge": (np.greater_equal, 1.0, "bool"),
    "eq": (np.equal, 1.0, "bool"),
    "ne": (np.not_equal, 1.0, "bool"),
    "and": (np.logical_and, 1.0, "bool"),
    "or": (np.logical_or, 1.0, "bool"),
    "not": (np.logical_not, 1.0, "bool"),
    "cast": (None, 0.5, "same"),  # handled specially (needs target dtype)
}


@dataclass(frozen=True)
class JitNode:
    """One node of a lazy expression tree.

    ``children`` entries are either other :class:`JitNode` instances, leaf
    markers (``("leaf", index)`` referring to the i-th input buffer), or
    scalar constants ``("scalar", value)``.  A lazy ``Array``'s tree
    marks its leaves with the device arrays themselves, ``("leaf",
    array)``, until ``Array.eval`` numbers them in depth-first order.
    """

    op: str
    children: Tuple[object, ...]
    dtype: np.dtype

    def __post_init__(self) -> None:
        if self.op not in _OP_TABLE:
            raise ExpressionError(f"unknown JIT op {self.op!r}")


LEAF = "leaf"
SCALAR = "scalar"

Child = Union[JitNode, Tuple[str, object]]


@dataclass(frozen=True)
class FusedKernel:
    """Result of flattening an expression tree for one launch.

    Attributes:
        signature: structural key for the kernel cache — two trees with the
            same ops/dtypes/leaf-arity compile to the same kernel even if
            they reference different buffers (exactly like ArrayFire).
        node_count: number of operation nodes fused.
        flops_per_element: summed per-element arithmetic.
        leaf_count: number of distinct input buffers read.
    """

    signature: str
    node_count: int
    flops_per_element: float
    leaf_count: int


def analyze(root: JitNode, leaf_dtypes: List[np.dtype]) -> FusedKernel:
    """Flatten a tree into a :class:`FusedKernel` descriptor.

    The tree is walked depth-first from an explicit stack, so a tree of
    any depth flattens without recursion.
    """
    parts: List[str] = []
    flops = 0.0
    nodes = 0
    # Children still to visit, next on top; ")" closes an operation.
    pending: List[Union[Child, str]] = [root]
    while pending:
        child = pending.pop()
        if isinstance(child, str):
            parts.append(child)
        elif isinstance(child, JitNode):
            nodes += 1
            flops += _OP_TABLE[child.op][1]
            parts.append(f"{child.op}[{child.dtype}](")
            pending.append(")")
            pending.extend(reversed(child.children))
        else:
            kind, payload = child
            if kind == LEAF:
                parts.append(f"in{payload}:{leaf_dtypes[payload]}")
            elif kind == SCALAR:
                # Scalars are passed as kernel arguments, not baked into the
                # source, so the signature keys on presence, not value —
                # `x > 5` and `x > 9` share one compiled kernel.
                parts.append("k")
            else:
                raise ExpressionError(f"unknown child kind {kind!r}")
    return FusedKernel(
        signature="".join(parts),
        node_count=nodes,
        flops_per_element=flops,
        leaf_count=len(leaf_dtypes),
    )


def evaluate(root: JitNode, leaves: List[np.ndarray]) -> np.ndarray:
    """Execute the tree's semantics over the leaf buffers.

    Operands are computed depth-first, first operand first, from an
    explicit stack, so a tree of any depth evaluates without recursion.
    """
    values: List[np.ndarray] = []
    # (child, True) applies a node whose operands are on ``values``.
    pending: List[Tuple[Child, bool]] = [(root, False)]
    while pending:
        child, ready = pending.pop()
        if ready:
            operands = values[len(values) - len(child.children):]
            del values[len(values) - len(child.children):]
            if child.op == "cast":
                (inner,) = operands
                values.append(inner.astype(child.dtype))
            else:
                values.append(_OP_TABLE[child.op][0](*operands))
        elif isinstance(child, JitNode):
            pending.append((child, True))
            pending.extend(
                (grandchild, False) for grandchild in reversed(child.children)
            )
        else:
            kind, payload = child
            if kind == LEAF:
                values.append(leaves[payload])
            elif kind == SCALAR:
                values.append(np.asarray(payload))
            else:
                raise ExpressionError(f"unknown child kind {kind!r}")
    (result,) = values
    return np.ascontiguousarray(np.broadcast_to(result, _leaf_length(leaves)))


def _leaf_length(leaves: List[np.ndarray]) -> Tuple[int, ...]:
    if not leaves:
        raise ExpressionError("JIT tree has no input buffers")
    return leaves[0].shape


class JitKernelCache:
    """Per-runtime cache of compiled fused kernels, keyed by signature."""

    #: NVRTC compilation of a small fused kernel: ~4 ms fixed frontend cost
    #: plus ~0.4 ms per fused operation node (source grows with the tree).
    COMPILE_BASE = 0.004
    COMPILE_PER_NODE = 0.0004

    def __init__(self) -> None:
        self._signatures: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def compile_cost(self, kernel: FusedKernel) -> float:
        """Return the compile charge for this launch (0 on cache hit)."""
        if kernel.signature in self._signatures:
            self.hits += 1
            self._signatures[kernel.signature] += 1
            return 0.0
        self.misses += 1
        self._signatures[kernel.signature] = 1
        return self.COMPILE_BASE + self.COMPILE_PER_NODE * kernel.node_count

    def __len__(self) -> int:
        return len(self._signatures)

    def invalidate(self) -> None:
        """Drop all compiled kernels (fresh-process simulation)."""
        self._signatures.clear()


def result_dtype(op: str, *operand_dtypes: np.dtype) -> np.dtype:
    """Dtype of an op's result under NumPy promotion rules."""
    kind = _OP_TABLE[op][2]
    if kind == "bool":
        return np.dtype(bool)
    return np.result_type(*operand_dtypes)
