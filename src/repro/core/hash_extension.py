"""Hash-join extension backends — **beyond the paper**, opt-in.

The paper's Table II shows hash join unsupported in every studied library,
and the base backends keep that negative result: ``thrust``,
``boost.compute`` and ``arrayfire`` raise
:class:`~repro.errors.UnsupportedOperatorError` on ``hash_join``.  These
wrappers answer the paper's closing "what if": each ``<library>+hash``
backend is the unmodified library emulation **plus** the build/probe hash
join of :mod:`repro.relational.hashjoin`, priced at that library's own
efficiency tier (as if the library had shipped a hashing primitive of its
usual code-generation quality).

Selecting them is an explicit choice (``framework.create("thrust+hash")``),
so every default benchmark still reproduces the paper's gap while the
extension quantifies how much of the "unused tuning potential" a single
missing primitive would have recovered.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.arrayfire_backend import ArrayFireBackend
from repro.core.backend import (
    Handle,
    Operator,
    OperatorSupport,
    SupportLevel,
)
from repro.core.boost_backend import BoostComputeBackend
from repro.core.thrust_backend import ThrustBackend
from repro.relational.hashjoin import SimulatedHashJoin

#: Table II cell text for the extension's hash join.
_EXTENSION_CELL = "extension: simulated build/probe kernels"


class HashJoinExtensionMixin:
    """Adds a simulated hash join to a library backend.

    The mixin reuses the host backend's runtime profile so the new kernels
    are priced at the same efficiency tier as the library's own operators,
    and returns the pair ids as the library's own handles
    (:meth:`~repro.core.backend.OperatorBackend.wrap`).
    """

    def _hash_joiner(self) -> SimulatedHashJoin:
        joiner = getattr(self, "_hash_joiner_instance", None)
        if joiner is None:
            joiner = SimulatedHashJoin(
                self.device, profile=self.runtime.profile, name=self.name
            )
            self._hash_joiner_instance = joiner
        return joiner

    # -- the added operator ------------------------------------------------

    def hash_join(
        self, left_keys: Handle, right_keys: Handle
    ) -> Tuple[Handle, Handle]:
        result = self._hash_joiner().join(left_keys.peek(), right_keys.peek())
        return (
            self.wrap(result.left_ids, f"{self.name}::hj_left"),
            self.wrap(result.right_ids, f"{self.name}::hj_right"),
        )

    def support(self) -> Dict[Operator, OperatorSupport]:
        table = dict(super().support())
        table[Operator.HASH_JOIN] = OperatorSupport(
            SupportLevel.FULL, _EXTENSION_CELL
        )
        return table


class ThrustHashBackend(HashJoinExtensionMixin, ThrustBackend):
    """Thrust emulation plus the hash join Thrust never shipped."""

    name = "thrust+hash"


class BoostComputeHashBackend(HashJoinExtensionMixin, BoostComputeBackend):
    """Boost.Compute emulation plus an OpenCL-tier hash join."""

    name = "boost.compute+hash"


class ArrayFireHashBackend(HashJoinExtensionMixin, ArrayFireBackend):
    """ArrayFire emulation plus a JIT-tier hash join."""

    name = "arrayfire+hash"


#: Factory table used by the framework registration.
HASH_EXTENSION_BACKENDS = {
    backend.name: backend
    for backend in (
        ThrustHashBackend,
        BoostComputeHashBackend,
        ArrayFireHashBackend,
    )
}
