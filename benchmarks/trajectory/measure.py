"""Host-clock measurement helpers for the trajectory benchmark.

Four things live here, none of which imports ``repro``:

* :class:`Spans` — an in-memory span recorder.  Every span has a name,
  a start and an end on the host clock, and the id of the span that
  caused it; the benchmark opens spans around its own calls into the
  program's public API and writes them out as a Chrome trace at the end.
* :class:`Reference` — a fixed task timed every so often during a run,
  which tracks how fast the machine is at the moment.
* :func:`attribute_layers` — folds a :mod:`cProfile` profile into self
  time per ``src/repro`` package.  Time spent in C code, NumPy or the
  standard library is charged to the ``repro`` package that called it,
  following the per-caller records :mod:`pstats` keeps.
* :func:`nearest_rank` and :func:`peak_rss_mb` — the run's percentile
  and memory definitions.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: ``src/repro`` packages the host breakdown names.  Everything else
#: (the benchmark itself, the interpreter's top level, packages no
#: workload exercises) is charged to :data:`OTHER`.
LAYERS = (
    "tpch", "sql", "query", "relational", "core", "libs",
    "gpu", "cpu", "hetero", "storage", "serve",
)
OTHER = "other"


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample.

    Defined here, not taken from ``repro.serve``, so that a change to
    the program cannot change how the benchmark measures it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def peak_rss_mb() -> float:
    """The process's peak resident set size in MiB (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _reference_task(data: np.ndarray) -> float:
    """Python object work, then NumPy masking, a scan and a sort: the
    mix of interpreter and array work the engine's operators do."""
    points = [_Point(i, 2 * i) for i in range(300)]
    total = sum(point.x + point.y for point in points)
    picked = data[data > 0.5]
    return total + float(np.cumsum(picked)[-1]) + float(np.argsort(data[:5000])[0])


class Reference:
    """Tracks the machine's speed with a fixed task timed during a run.

    A shared machine changes speed by up to 1.4x for minutes at a time,
    longer than a run, so no statistic inside one run removes it.  This
    task slows with the machine (its median over a run correlates 0.84
    to 0.93 with the workloads' host time), and the program cannot
    change it.  :meth:`due` times it every :attr:`every_s` seconds, at
    points between operations; :meth:`scale` turns host seconds here
    into host seconds at the speed where one task takes
    :data:`NOMINAL_MS`.
    """

    #: Median ms of one task, timed between operations, on the machine
    #: the baseline was taken on (2-core shared VM, Python 3.11, NumPy
    #: 2.4) in a quiet period.
    NOMINAL_MS = 0.6
    REPEATS = 15

    def __init__(self, every_s: float = 0.5) -> None:
        """The first :meth:`due` call times the task; with ``every_s``
        infinite, none does."""
        self.every_s = every_s
        self.samples_ms: List[float] = []
        self._data = np.random.default_rng(0).random(50_000)
        self._next = 0.0 if math.isfinite(every_s) else math.inf

    def due(self) -> float:
        """Time the task if it is due; returns the host seconds spent."""
        start = time.perf_counter()
        if start < self._next:
            return 0.0
        times = []
        for _ in range(self.REPEATS):
            begin = time.perf_counter()
            _reference_task(self._data)
            times.append(time.perf_counter() - begin)
        self.samples_ms.append(1e3 * statistics.median(times))
        end = time.perf_counter()
        self._next = end + self.every_s
        return end - start

    def scale(self) -> float:
        """Factor from host seconds measured in this run to host seconds
        at the nominal speed."""
        return self.NOMINAL_MS / statistics.median(self.samples_ms)


class Spans:
    """Spans kept in memory and written out once, at the end of a run."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[int] = []
        #: (id, parent id, name, start s, end s) per closed span.
        self.closed: List[Tuple[int, int, str, float, float]] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body, nested under the open span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter() - self._origin
        try:
            yield
        finally:
            end = time.perf_counter() - self._origin
            self._stack.pop()
            self.closed.append((span_id, parent, name, start, end))

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed interval (``perf_counter`` values)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self.closed.append(
            (span_id, parent, name, start - self._origin, end - self._origin)
        )

    def total_ms(self, name: str) -> float:
        """Summed duration of every span called ``name`` (ms)."""
        return 1e3 * sum(
            end - start
            for _id, _parent, span_name, start, end in self.closed
            if span_name == name
        )

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome-trace complete ("X") events."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, end in sorted(
                self.closed, key=lambda span: (span[3], span[0])
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
            handle.write("\n")


_BENCHMARK_DIR = Path(__file__).resolve().parent


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, if any.

    Returns :data:`OTHER` for the benchmark's own files and for ``repro``
    files outside :data:`LAYERS`, and None for other code (C builtins,
    NumPy, the standard library), whose time belongs to its caller.
    """
    path = Path(filename)
    if path.parent == _BENCHMARK_DIR:
        return OTHER
    parts = path.parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and index > 0 and parts[index - 1] == "src":
            package = parts[index + 1] if index + 2 < len(parts) else ""
            return package if package in LAYERS else OTHER
    return None


def attribute_layers(stats: Dict) -> Tuple[Dict[str, float], float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A function inside ``src/repro/<layer>/`` keeps its own self time.
    Any other function's self time is split over its callers in
    proportion to the self time it spent under each (the per-caller
    records of :mod:`pstats`), recursively, until it reaches a ``repro``
    function.  Time that reaches no ``repro`` function — the benchmark's
    own code, a call made right after profiling was switched on, or a
    cycle among outside functions — is :data:`OTHER`.

    Returns ``(seconds per layer, total self seconds)``.
    """
    shares: Dict[tuple, Dict[str, float]] = {}

    def share_of(func: tuple, active: frozenset) -> Dict[str, float]:
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {
                caller: edge
                for caller, edge in stats[func][4].items()
                if caller != func and caller in stats
            }
            # Split by self time spent under each caller; by call count
            # when the clock resolution left every edge at zero.
            weights = {caller: edge[2] for caller, edge in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {
                    caller: float(edge[0]) for caller, edge in callers.items()
                }
            total = sum(weights.values())
            result = {}
            for caller, weight in weights.items():
                if total <= 0.0:
                    break
                parent = (
                    {OTHER: 1.0} if caller in active
                    else share_of(caller, active | {func})
                )
                for name, fraction in parent.items():
                    result[name] = (
                        result.get(name, 0.0) + fraction * weight / total
                    )
            if not result:
                result = {OTHER: 1.0}
        shares[func] = result
        return result

    seconds = {name: 0.0 for name in LAYERS + (OTHER,)}
    total = 0.0
    for func, (_cc, _nc, self_time, _ct, _callers) in stats.items():
        total += self_time
        for name, fraction in share_of(func, frozenset()).items():
            seconds[name] += self_time * fraction
    return seconds, total
