"""Compiled fused-pipeline backend — whole-pipeline query compilation.

The paper finds ArrayFire's JIT fuses only element-wise chains, leaving
the bulk of a query's DRAM traffic unfused; Eiger and the tile-based
model of Shanbhag et al. show the real win is *whole-pipeline*
compilation: scan → filter → probe → partial-aggregate executed as one
generated kernel over tiles, touching DRAM once.  This backend simulates
that engine.

It inherits every eager operator from :class:`HandwrittenBackend` (the
tuned baseline — a compiling engine's generated code is at least as good
as expert kernels for the operators it does *not* fuse) and adds:

* ``supports_fused_pipelines`` — lets the pipeline runner
  (:mod:`repro.query.runner`) run a segment of the pipeline IR
  (:mod:`repro.query.pipeline`) as one fused kernel;
* a **program cache** — each distinct pipeline signature pays JIT
  codegen once (a serialising :meth:`~repro.gpu.device.Device.compile_program`
  charge, like Boost.Compute's OpenCL builds), then launches for free;
* :meth:`launch_fused` — one single-DRAM-pass kernel charge for an
  entire pipeline segment (``FUSED[...]`` events in Chrome traces), and
  :meth:`merge_groups` for the partial-aggregate merge that ends a
  fused keyed group-by;
* a ``fusion`` mode: ``"auto"`` consults the optimizer's
  fusion-boundary cost model per segment, ``"on"``/``"off"`` force it.
"""

from __future__ import annotations

from typing import Dict

from repro.gpu.device import Device
from repro.core.handwritten_backend import HandwrittenBackend, HandwrittenRuntime

#: Fusion modes: per-segment cost model, always fuse, never fuse.
FUSION_MODES = ("auto", "on", "off")


class CompiledRuntime(HandwrittenRuntime):
    """Generated-kernel runtime: tuned efficiency, own event namespace."""

    library_name = "compiled"


class CompiledBackend(HandwrittenBackend):
    """Whole-pipeline JIT compilation over the handwritten operator set."""

    name = "compiled"
    runtime_class = CompiledRuntime
    supports_fused_pipelines = True

    #: JIT codegen cost per pipeline: fixed front-end share plus a
    #: per-fused-operator share (specialising the tile loop).  Far
    #: cheaper than Boost.Compute's 20 ms OpenCL builds — Hyper-style
    #: engines compile small specialised kernels.
    COMPILE_BASE_SECONDS = 2.0e-3
    COMPILE_PER_OP_SECONDS = 2.5e-4
    #: Executions a compiled program is assumed to serve (steady-state
    #: operation, cf. the multi-query serving layer); the "auto" cost
    #: model charges each decision this amortised share of a cold build.
    COMPILE_AMORTIZATION = 1000.0

    def __init__(self, device: Device, fusion: str = "auto") -> None:
        if fusion not in FUSION_MODES:
            raise ValueError(
                f"unknown fusion mode {fusion!r}; known: {FUSION_MODES}"
            )
        super().__init__(device)
        self.fusion = fusion
        #: Pipeline signature -> compile cost paid (the program cache).
        self._programs: Dict[str, float] = {}

    # -- program cache ------------------------------------------------------------

    def compile_cost(self, op_count: int) -> float:
        """Cold codegen seconds for a segment fusing ``op_count`` ops."""
        return (
            self.COMPILE_BASE_SECONDS
            + self.COMPILE_PER_OP_SECONDS * max(op_count, 1)
        )

    def amortized_compile_seconds(self, signature: str, op_count: int) -> float:
        """Compile share the fusion cost model should account for: the
        cold build spread over the assumed reuse count, 0 on a hit."""
        if signature in self._programs:
            return 0.0
        return self.compile_cost(op_count) / self.COMPILE_AMORTIZATION

    def ensure_program(self, signature: str, op_count: int) -> float:
        """Compile the fused program for ``signature`` unless cached.

        A cold build charges a serialising JIT-codegen interval on the
        device (drains engines, like every runtime compilation in the
        simulator) and returns its cost; a warm hit charges nothing.
        """
        if signature in self._programs:
            return 0.0
        cost = self.compile_cost(op_count)
        self.device.compile_program(f"compiled::codegen[{op_count} ops]", cost)
        self._programs[signature] = cost
        return cost

    @property
    def cached_programs(self) -> int:
        return len(self._programs)

    # -- fused launches -----------------------------------------------------------

    def launch_fused(
        self,
        name: str,
        elements: int,
        *,
        flops: float,
        read: float,
        written: float,
        fixed_flops: float = 0.0,
        fixed_bytes: float = 0.0,
    ) -> float:
        """One fused kernel for a whole pipeline segment.

        Priced as a *single* DRAM pass (``passes=1``): every input byte
        is read once, every output byte written once, with all operator
        arithmetic riding along — the structural advantage over the
        eager chain's one-pass-per-operator execution.
        """
        return self.runtime._charge(
            f"FUSED[{name}]",
            elements,
            flops=flops,
            read=read,
            written=written,
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes,
            passes=1,
        )

    def merge_groups(self, groups: int, aggregates: int) -> float:
        """Merge a fused group-by's per-tile partial aggregates.

        The one pipeline breaker of a fused keyed group-by: two passes
        over ``groups`` rows, each a key plus ``aggregates`` values.
        """
        row_bytes = 8.0 + 8.0 * aggregates
        return self.runtime._charge(
            f"groupmerge[{aggregates} aggs]",
            groups,
            flops=2.0 * aggregates,
            read=row_bytes,
            written=row_bytes,
            passes=2,
        )
