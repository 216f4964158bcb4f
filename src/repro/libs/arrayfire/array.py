"""ArrayFire ``Array`` (lazy) and the ArrayFire runtime.

An :class:`Array` is either *materialized* (backed by device memory) or
*lazy* (a JIT expression tree over materialized leaves).  Element-wise
operators extend the tree; anything that needs real values — reductions,
sorts, ``where``, host readback — forces :meth:`Array.eval`, which fuses
the tree into one kernel launch (compiling it on first sight of the tree
shape).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import ArraySizeMismatchError, ExpressionError, LibraryError
from repro.gpu.device import Device
from repro.gpu.kernel import EfficiencyProfile
from repro.libs.arrayfire import jit
from repro.libs.base import ArrayLike, DeviceArray, LibraryRuntime, as_numpy

#: ArrayFire kernels are vendor-tuned CUDA (or OpenCL) code paths and its
#: JIT emits straightforward element-wise kernels: close to Thrust on
#: throughput (~80/85% of peak) but every operation crosses the ArrayFire
#: runtime (array refcounting, dimension checks), adding ~60% to launch
#: dispatch.
ARRAYFIRE_PROFILE = EfficiencyProfile(
    name="arrayfire",
    compute_efficiency=0.80,
    memory_efficiency=0.85,
    launch_multiplier=1.6,
)

Scalar = Union[int, float, bool, np.generic]
Operand = Union["Array", Scalar]


class ArrayFireRuntime(LibraryRuntime):
    """Execution context holding the JIT kernel cache."""

    library_name = "arrayfire"

    def __init__(self, device: Device, fusion_enabled: bool = True) -> None:
        super().__init__(device, ARRAYFIRE_PROFILE)
        self.jit_cache = jit.JitKernelCache()
        #: The fusion ablation benchmark flips this off to quantify how much
        #: of ArrayFire's advantage comes from JIT fusion: with fusion
        #: disabled every element-wise op evaluates immediately (one kernel
        #: per op), like an eager library.
        self.fusion_enabled = fusion_enabled

    def array(
        self,
        values: ArrayLike,
        dtype: Optional[Union[str, np.dtype]] = None,
        label: str = "af::array",
    ) -> "Array":
        """Construct a materialized array from host data (charges H2D),
        mirroring ``af::array(n, host_ptr)``."""
        data = as_numpy(values, np.dtype(dtype) if dtype is not None else None)
        storage = self._upload(data, label)
        return Array(self, storage=storage)

    def constant(self, value: Scalar, n: int, dtype: Union[str, np.dtype]) -> "Array":
        """``af::constant`` — filled array, produced by one tiny kernel."""
        if n < 0:
            raise ValueError(f"array size cannot be negative: {n}")
        data = np.full(n, value, dtype=np.dtype(dtype))
        self._charge("constant", n, flops=0.0, written=data.dtype.itemsize)
        storage = self._materialize(data, "af::constant")
        return Array(self, storage=storage)

    def iota(self, n: int, dtype: Union[str, np.dtype] = np.int32) -> "Array":
        """``af::iota`` — 0..n-1."""
        if n < 0:
            raise ValueError(f"array size cannot be negative: {n}")
        data = np.arange(n, dtype=np.dtype(dtype))
        self._charge("iota", n, flops=1.0, written=data.dtype.itemsize)
        storage = self._materialize(data, "af::iota")
        return Array(self, storage=storage)

    def from_result(self, data: np.ndarray, label: str) -> "Array":
        """Wrap a device-computed result (no transfer charged)."""
        storage = self._materialize(np.ascontiguousarray(data), label)
        return Array(self, storage=storage)

    # -- streams -------------------------------------------------------------
    #
    # ArrayFire runs every operation on one internal per-device stream
    # (``afcu::getStream``); users may swap it for their own via
    # ``afcu::setStream``.  The base-class ``set_stream`` models exactly
    # that, so these are thin named aliases.

    def get_stream(self):
        """``afcu::getStream`` — the stream ArrayFire enqueues work on
        (``None`` means the legacy default stream)."""
        return self._effective_stream()

    def use_new_stream(self, name: str = "af-stream"):
        """Install a fresh asynchronous stream as ArrayFire's per-device
        queue (``afcu::setStream`` with a user-created stream) and return
        it."""
        stream = self.create_stream(name)
        self.set_stream(stream)
        return stream

    # -- memory manager ------------------------------------------------------
    #
    # ArrayFire ships its own pooling device-memory manager; these mirror
    # the two user-facing hooks.

    def device_mem_info(self) -> dict:
        """``af::deviceMemInfo`` — allocated vs. locked bytes/buffers.

        "alloc" covers everything ArrayFire holds from the driver
        (including pool-cached blocks); "lock" covers buffers currently
        handed out to live arrays.
        """
        memory = self.device.memory
        pool = self.device.pool
        cached_bytes = pool.cached_bytes if pool is not None else 0
        cached_blocks = pool.cached_blocks if pool is not None else 0
        return {
            "alloc_bytes": memory.used_bytes,
            "alloc_buffers": memory.live_buffer_count,
            "lock_bytes": memory.used_bytes - cached_bytes,
            "lock_buffers": memory.live_buffer_count - cached_blocks,
        }

    def device_gc(self) -> int:
        """``af::deviceGC`` — release unlocked (pool-cached) buffers back
        to the driver; returns the bytes released."""
        return self.trim_device_pool()


class Array:
    """A lazy ArrayFire array (1-D, matching the paper's columnar usage)."""

    def __init__(
        self,
        runtime: ArrayFireRuntime,
        storage: Optional[DeviceArray] = None,
        node: Optional[jit.JitNode] = None,
        length: Optional[int] = None,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if (storage is None) == (node is None):
            raise ExpressionError(
                "Array needs exactly one of storage (materialized) or node (lazy)"
            )
        self.runtime = runtime
        self._storage = storage
        #: A lazy array's tree; its leaves hold the device arrays they read.
        self._node = node
        self._length = length if length is not None else (
            len(storage) if storage is not None else 0
        )
        self._dtype = dtype if dtype is not None else (
            storage.dtype if storage is not None else np.dtype(np.float64)
        )

    # -- introspection -----------------------------------------------------

    @property
    def is_lazy(self) -> bool:
        """True while the array is an unevaluated expression tree."""
        return self._storage is None

    @property
    def dtype(self) -> np.dtype:
        """Element type (computed for lazy nodes via promotion rules)."""
        return self._dtype

    def __len__(self) -> int:
        return self._length

    @property
    def elements(self) -> int:
        """``af::array::elements()``."""
        return self._length

    def __repr__(self) -> str:
        state = "lazy" if self.is_lazy else "materialized"
        return f"Array(n={self._length}, dtype={self._dtype}, {state})"

    # -- evaluation ----------------------------------------------------------

    def eval(self) -> "Array":
        """Force evaluation (``af::eval``): fuse, maybe compile, launch once.

        Idempotent on materialized arrays.
        """
        if self._storage is not None:
            return self
        assert self._node is not None
        leaves: List[DeviceArray] = []
        root = _number_leaves(self._node, leaves)
        leaf_arrays = [leaf.data for leaf in leaves]
        leaf_dtypes = [leaf.dtype for leaf in leaves]
        kernel = jit.analyze(root, leaf_dtypes)
        compile_cost = self.runtime.jit_cache.compile_cost(kernel)
        if compile_cost > 0.0:
            self.runtime.device.compile_program(
                f"af_jit[{kernel.node_count} ops]", compile_cost
            )
        result = jit.evaluate(root, leaf_arrays)
        result = result.astype(self._dtype, copy=False)
        # One fused kernel: each distinct leaf read once, result written once.
        self.runtime._charge(
            f"jit_fused[{kernel.node_count}]",
            self._length,
            flops=kernel.flops_per_element,
            read=float(sum(d.itemsize for d in leaf_dtypes)),
            written=float(self._dtype.itemsize),
        )
        self._storage = self.runtime._materialize(
            np.ascontiguousarray(result), "af::jit_out"
        )
        self._node = None
        return self

    def storage(self) -> DeviceArray:
        """The backing device array (evaluating first if needed)."""
        self.eval()
        assert self._storage is not None
        return self._storage

    def to_host(self) -> np.ndarray:
        """``af::array::host()`` — evaluate and copy back (charges D2H)."""
        return self.storage().to_host("af::host")

    def peek(self) -> np.ndarray:
        """Evaluate and read the host mirror without charging a transfer
        (test/verification helper)."""
        return self.storage().peek()

    # -- lazy graph construction ---------------------------------------------

    def _unary(self, op: str, dtype: Optional[np.dtype] = None) -> "Array":
        out_dtype = dtype if dtype is not None else jit.result_dtype(op, self._dtype)
        lazy = _build_lazy(self.runtime, op, [self], out_dtype)
        if not self.runtime.fusion_enabled:
            return lazy.eval()
        return lazy

    def _binary(self, op: str, other: Operand, reflected: bool = False) -> "Array":
        if isinstance(other, Array):
            if other.runtime is not self.runtime:
                raise LibraryError("cannot mix arrays from different runtimes")
            if len(other) != len(self):
                raise ArraySizeMismatchError(len(self), len(other), f"af::{op}")
            operands: List[Operand] = [other, self] if reflected else [self, other]
            out_dtype = jit.result_dtype(op, self._dtype, other._dtype)
        else:
            scalar_dtype = np.result_type(other)
            operands = [other, self] if reflected else [self, other]
            out_dtype = jit.result_dtype(op, self._dtype, scalar_dtype)
        lazy = _build_lazy(self.runtime, op, operands, out_dtype)
        if not self.runtime.fusion_enabled:
            return lazy.eval()
        return lazy

    # Arithmetic operators.
    def __add__(self, other: Operand) -> "Array":
        return self._binary("add", other)

    def __radd__(self, other: Operand) -> "Array":
        return self._binary("add", other, reflected=True)

    def __sub__(self, other: Operand) -> "Array":
        return self._binary("sub", other)

    def __rsub__(self, other: Operand) -> "Array":
        return self._binary("sub", other, reflected=True)

    def __mul__(self, other: Operand) -> "Array":
        """Table II: the *product* operator is realized as ``operator*()``."""
        return self._binary("mul", other)

    def __rmul__(self, other: Operand) -> "Array":
        return self._binary("mul", other, reflected=True)

    def __truediv__(self, other: Operand) -> "Array":
        return self._binary("div", other)

    def __rtruediv__(self, other: Operand) -> "Array":
        return self._binary("div", other, reflected=True)

    def __mod__(self, other: Operand) -> "Array":
        return self._binary("mod", other)

    def __neg__(self) -> "Array":
        return self._unary("neg")

    def __abs__(self) -> "Array":
        return self._unary("abs")

    # Comparisons.
    def __lt__(self, other: Operand) -> "Array":
        return self._binary("lt", other)

    def __le__(self, other: Operand) -> "Array":
        return self._binary("le", other)

    def __gt__(self, other: Operand) -> "Array":
        return self._binary("gt", other)

    def __ge__(self, other: Operand) -> "Array":
        return self._binary("ge", other)

    def __eq__(self, other: Operand) -> "Array":  # type: ignore[override]
        return self._binary("eq", other)

    def __ne__(self, other: Operand) -> "Array":  # type: ignore[override]
        return self._binary("ne", other)

    __hash__ = None  # type: ignore[assignment]  # == builds expressions

    # Logical.
    def __and__(self, other: Operand) -> "Array":
        return self._binary("and", other)

    def __or__(self, other: Operand) -> "Array":
        return self._binary("or", other)

    def __invert__(self) -> "Array":
        return self._unary("not")

    def cast(self, dtype: Union[str, np.dtype]) -> "Array":
        """``af::array::as`` — lazy dtype cast."""
        target = np.dtype(dtype)
        lazy = _build_lazy(self.runtime, "cast", [self], target)
        if not self.runtime.fusion_enabled:
            return lazy.eval()
        return lazy


def _build_lazy(
    runtime: ArrayFireRuntime,
    op: str,
    operands: List[Operand],
    out_dtype: np.dtype,
) -> Array:
    """Construct a lazy Array node over ``operands`` (Arrays or scalars).

    A lazy operand's tree becomes a child as it is and a materialized
    operand a leaf holding its device array, so each call builds one node
    however deep its operands are; :meth:`Array.eval` numbers the leaves.
    """
    children: List[object] = []
    length: Optional[int] = None
    for operand in operands:
        if isinstance(operand, Array):
            length = len(operand) if length is None else length
            if operand.is_lazy:
                children.append(operand._node)
            else:
                children.append((jit.LEAF, operand._storage))
        else:
            children.append((jit.SCALAR, operand))
    if length is None:
        raise ExpressionError(f"af::{op} needs at least one array operand")
    node = jit.JitNode(op=op, children=tuple(children), dtype=out_dtype)
    return Array(runtime, node=node, length=length, dtype=out_dtype)


def _number_leaves(
    node: jit.JitNode, leaves: List[DeviceArray]
) -> jit.JitNode:
    """``node`` with its leaves numbered in depth-first order from
    ``len(leaves)``, appending the device arrays they read to ``leaves``:
    ``("leaf", i)`` reads ``leaves[i]``.

    A device array reached twice (``a * a``, or one lazy array used by
    two operands) gets a number per visit: the fused kernel reads each
    leaf once.  The walk keeps its own stack, so a tree of any depth
    (a long ``|`` chain) numbers without recursion.
    """
    # One (node, its numbered children so far) frame per open node.
    stack: List[Tuple[jit.JitNode, List[object]]] = [(node, [])]
    while True:
        current, children = stack[-1]
        if len(children) == len(current.children):
            stack.pop()
            numbered = jit.JitNode(
                op=current.op, children=tuple(children), dtype=current.dtype
            )
            if not stack:
                return numbered
            stack[-1][1].append(numbered)
            continue
        child = current.children[len(children)]
        if isinstance(child, jit.JitNode):
            stack.append((child, []))
        elif child[0] == jit.LEAF:
            children.append((jit.LEAF, len(leaves)))
            leaves.append(child[1])
        else:
            children.append(child)
