"""Shared machinery for the three GPU library emulations.

Each library emulation owns a :class:`LibraryRuntime` bound to a simulated
:class:`~repro.gpu.device.Device`.  Data lives in :class:`DeviceArray`
objects: a host-side NumPy mirror of the device contents plus the
:class:`~repro.gpu.memory.DeviceBuffer` accounting for its device memory.
The NumPy array carries the *semantics*; the buffer and the runtime's
efficiency profile carry the *costs*.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.errors import ArraySizeMismatchError, InvalidBufferError
from repro.gpu.device import Device
from repro.gpu.kernel import EfficiencyProfile, KernelCost
from repro.gpu.memory import DeviceBuffer
from repro.gpu.stream import Stream

ArrayLike = Union[np.ndarray, Sequence[int], Sequence[float]]


class DeviceArray:
    """A typed, fixed-length array resident on the simulated device.

    Device memory is released exactly once: by :meth:`free`, or when the
    host handle is collected (``__del__``, also for an array in a
    reference cycle), the way RAII vectors (``thrust::device_vector``)
    behave.
    """

    #: Whether the device allocation is still live.  The class-level
    #: ``False`` keeps an array whose ``__init__`` never ran to the end
    #: from releasing anything.
    _alive = False

    def __init__(
        self,
        runtime: "LibraryRuntime",
        data: np.ndarray,
        buffer: DeviceBuffer,
    ) -> None:
        self.runtime = runtime
        self.data = data
        self.buffer = buffer
        self._alive = True

    # -- introspection -----------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """Element type of the array."""
        return self.data.dtype

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return int(self.data.dtype.itemsize)

    @property
    def nbytes(self) -> int:
        """Total device bytes occupied by the payload."""
        return int(self.data.nbytes)

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self)}, dtype={self.dtype}, "
            f"device={self.runtime.device.spec.name!r})"
        )

    # -- lifetime ----------------------------------------------------------

    def free(self) -> None:
        """Explicitly release the device allocation (idempotent)."""
        if self._alive:
            self._alive = False
            _release_buffer(self.runtime.device, self.buffer)

    #: Collecting the host handle releases the allocation the same way.
    __del__ = free

    @property
    def alive(self) -> bool:
        """Whether the device allocation is still live."""
        return self._alive

    def _require_alive(self) -> None:
        if not self._alive:
            raise InvalidBufferError(f"use after free of {self!r}")

    # -- host access -------------------------------------------------------

    def to_host(self, label: str = "d2h") -> np.ndarray:
        """Copy the array back to the host (charges a D2H transfer)."""
        self._require_alive()
        self.runtime.device.transfer_to_host(
            self.nbytes, label, stream=self.runtime._effective_stream()
        )
        return self.data.copy()

    def peek(self) -> np.ndarray:
        """Read the host mirror *without* charging a transfer.

        Test helpers use this to assert semantics without perturbing the
        cost accounting under measurement.
        """
        return self.data


def _release_buffer(device: Device, buffer: DeviceBuffer) -> None:
    """Free a buffer unless it was already freed."""
    if not buffer.freed:
        device.free(buffer)


class LibraryRuntime:
    """Base class for a library emulation bound to one device.

    Subclasses define ``profile`` (how efficient the library's generated
    kernels are) and use :meth:`_charge` / :meth:`_upload` to price work.
    """

    #: Human-readable library name (matches the paper's terminology).
    library_name: str = "base"

    def __init__(self, device: Device, profile: EfficiencyProfile) -> None:
        self.device = device
        self.profile = profile
        #: Runtime-level stream installed by :meth:`set_stream`; work is
        #: priced on it unless an enclosing ``Device.stream_scope`` wins.
        self._stream: Optional[Stream] = None

    # -- streams ------------------------------------------------------------

    def create_stream(self, name: Optional[str] = None) -> Stream:
        """Create an asynchronous stream on the runtime's device."""
        return self.device.create_stream(name)

    def set_stream(self, stream: Optional[Stream]) -> None:
        """Install a persistent stream for this runtime's work.

        Models per-context queues (ArrayFire's per-device stream, a
        Boost.Compute command queue).  ``None`` restores legacy
        default-stream semantics.
        """
        self._stream = stream

    def on(self, stream: Optional[Stream]) -> Iterator[Optional[Stream]]:
        """Scope-based stream routing (``thrust::cuda::par.on(stream)``):
        a context manager pricing all enclosed work on ``stream``."""
        return self.device.stream_scope(stream)

    def _effective_stream(self) -> Optional[Stream]:
        """Device scope stream first, then the runtime stream."""
        scoped = self.device.current_stream
        return scoped if scoped is not None else self._stream

    def sync(self) -> float:
        """Drain outstanding work: the effective stream if one is set
        (``cudaStreamSynchronize``), else the whole device.  Returns the
        new simulated clock time."""
        stream = self._effective_stream()
        if stream is not None:
            return stream.synchronize()
        return self.device.synchronize()

    # -- device memory pool --------------------------------------------------

    @property
    def memory_pool(self):
        """The device's pooling sub-allocator, or None when the device
        runs the legacy or plain-``cudaMalloc`` allocator."""
        return self.device.pool

    def pool_stats(self):
        """A :class:`~repro.gpu.memory.PoolStats` snapshot, or None when
        the device is not pooled."""
        pool = self.device.pool
        return pool.stats() if pool is not None else None

    def trim_device_pool(self) -> int:
        """Release cached pool blocks back to the device; returns bytes."""
        return self.device.trim_pool()

    # -- pricing helpers ----------------------------------------------------

    def _charge(
        self,
        name: str,
        elements: int,
        *,
        flops: float = 1.0,
        read: float = 0.0,
        written: float = 0.0,
        fixed_flops: float = 0.0,
        fixed_bytes: float = 0.0,
        passes: int = 1,
    ) -> float:
        """Launch one kernel with per-element work description."""
        cost = KernelCost(
            name=f"{self.library_name}::{name}",
            elements=elements,
            flops_per_element=flops,
            bytes_read_per_element=read,
            bytes_written_per_element=written,
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes,
            passes=passes,
        )
        return self.device.launch(
            cost, self.profile, stream=self._effective_stream()
        )

    #: Concrete DeviceArray subclass this runtime hands out (library
    #: emulations override this with their native array type).
    array_type = DeviceArray

    def _upload(self, data: np.ndarray, label: str) -> DeviceArray:
        """Allocate device storage for ``data`` and charge the H2D copy."""
        contiguous = np.ascontiguousarray(data)
        buffer = self.device.alloc_for_array(contiguous, label)
        self.device.transfer_to_device(
            contiguous.nbytes, label, stream=self._effective_stream()
        )
        return self.array_type(self, contiguous.copy(), buffer)

    def _materialize(self, data: np.ndarray, label: str) -> DeviceArray:
        """Wrap a device-produced result (no H2D transfer is charged)."""
        contiguous = np.ascontiguousarray(data)
        buffer = self.device.alloc_for_array(contiguous, label)
        return self.array_type(self, contiguous, buffer)

    # -- scalar readback -----------------------------------------------------

    def _read_scalar(self, value: np.generic, label: str) -> np.generic:
        """Charge the D2H copy of a scalar result (reduce & friends)."""
        nbytes = int(np.dtype(value.dtype).itemsize) if hasattr(value, "dtype") else 8
        self.device.transfer_to_host(
            nbytes, label, stream=self._effective_stream()
        )
        return value


def check_same_length(
    a: Union[DeviceArray, np.ndarray],
    b: Union[DeviceArray, np.ndarray],
    context: str,
) -> int:
    """Validate that two arrays agree in length; returns that length."""
    la, lb = len(a), len(b)
    if la != lb:
        raise ArraySizeMismatchError(la, lb, context)
    return la


def index_out_of_range(indices: np.ndarray, n: int) -> bool:
    """Whether any of the integer ``indices`` lies outside ``[0, n)``.

    One reduction: viewed as ``uint64``, a negative ``int64`` index reads
    as at least ``2**63``, above every valid one, so the largest value
    alone decides.  Narrower signed indices are widened first.
    """
    if not len(indices):
        return False
    if indices.dtype.kind == "i":
        indices = indices.astype(np.int64, copy=False).view(np.uint64)
    return int(indices.max()) >= n


def as_numpy(values: ArrayLike, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Coerce host input to a 1-D contiguous NumPy array."""
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {array.shape}")
    return np.ascontiguousarray(array)
