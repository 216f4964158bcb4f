"""Event trace for the simulated GPU device.

The profiler records every costed event — kernel launches, host/device
transfers, program compilations, allocations — with its simulated start time
and duration.  The benchmark harness uses it to produce the per-query time
breakdowns (transfer vs. compile vs. kernel) that the paper discusses when
explaining why chained library calls cause "unwanted intermediate data
movements".
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

# Event kinds used throughout the simulator.
KERNEL = "kernel"
TRANSFER_H2D = "transfer_h2d"
TRANSFER_D2H = "transfer_d2h"
#: Peer (device-to-device) copy leg within a DeviceGroup; recorded on both
#: endpoint devices (``role`` payload says which end this event covers).
TRANSFER_D2D = "transfer_d2d"
COMPILE = "compile"
ALLOC = "alloc"
FREE = "free"
#: Annotation spanning one serving-layer request (arrival → completion).
#: Spans carry no device time of their own — the kernels/transfers they
#: cover are recorded separately — so summaries skip them.
SPAN = "span"
#: Host <-> storage (simulated NVMe) I/O leg of the tiered column store.
#: Host-blocking like an O_DIRECT read/write: it occupies no device
#: engine, so it never overlaps with stream work.
HOST_IO = "host_io"
#: Node-to-node message over the cluster's NETWORK link tier (shard
#: fetches, cross-node exchange legs).  Recorded on both endpoint nodes'
#: lead devices (``role`` payload says send vs recv) and host-blocking
#: like a synchronous RPC: the coordinator waits for the bytes.
NET = "net"

_ALL_KINDS = frozenset((
    KERNEL, TRANSFER_H2D, TRANSFER_D2H, TRANSFER_D2D,
    COMPILE, ALLOC, FREE, SPAN, HOST_IO, NET,
))

#: The :class:`ProfileSummary` byte counter of each byte-carrying kind.
_BYTE_FIELDS = {
    TRANSFER_H2D: "bytes_h2d",
    TRANSFER_D2H: "bytes_d2h",
    TRANSFER_D2D: "bytes_d2d",
    HOST_IO: "bytes_io",
    NET: "bytes_net",
}


class Event(NamedTuple):
    """A single costed event on the simulated device.

    A plain tuple: a device records one per launch, transfer, allocation
    and free, so construction must stay cheap.  A hand-built event gets
    an empty, read-only payload.
    """

    kind: str
    name: str
    start: float
    duration: float
    payload: Mapping[str, Any] = MappingProxyType({})

    @property
    def end(self) -> float:
        """Simulated time at which the event completed."""
        return self.start + self.duration


class EventWindow(NamedTuple):
    """What :meth:`Profiler.window` reads off the events after a mark."""

    #: Seconds per event kind, SPAN excluded, each kind summed in
    #: recording order: the ``time_by_kind`` of :meth:`Profiler.summary`.
    time_by_kind: Dict[str, float]
    #: The latest ``end`` of any event, SPAN included; ``-inf`` when no
    #: event follows the mark.
    latest_end: float


@dataclass
class ProfileSummary:
    """Aggregated view over a slice of the event trace."""

    total_time: float
    time_by_kind: Dict[str, float]
    count_by_kind: Dict[str, int]
    kernel_count: int
    kernel_time: float
    transfer_time: float
    compile_time: float
    bytes_h2d: int
    bytes_d2h: int
    #: Host time spent in the allocator (cudaMalloc/cudaFree/pool paths);
    #: zero under the legacy free-allocation model.
    alloc_time: float = 0.0
    #: Allocations served from / missing the device's pool (pooled devices
    #: only; both zero otherwise).
    pool_hits: int = 0
    pool_misses: int = 0
    #: Bytes moved in peer (device-to-device) copy legs recorded on this
    #: device; zero outside multi-device runs.
    bytes_d2d: int = 0
    #: Host time spent on simulated NVMe I/O (tiered-store demotions and
    #: promotions through the third tier); zero without a tiered store.
    io_time: float = 0.0
    #: Bytes moved over the simulated NVMe link.
    bytes_io: int = 0
    #: Host time spent on cluster network messages (NET events recorded
    #: on this device); zero outside multi-node runs.
    net_time: float = 0.0
    #: Bytes moved over the cluster NETWORK link in events recorded here.
    bytes_net: int = 0

    def fraction(self, kind: str) -> float:
        """Fraction of total event time spent in ``kind`` (0 if no time)."""
        if self.total_time <= 0.0:
            return 0.0
        return self.time_by_kind.get(kind, 0.0) / self.total_time


class Profiler:
    """Append-only event trace with mark/slice support.

    ``mark()`` returns a cursor; ``events_since(cursor)`` and
    ``summary(since=cursor)`` then restrict analysis to everything recorded
    after the mark, which is how per-operator and per-query breakdowns are
    extracted from a long-lived device.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[Event] = []

    def record(
        self,
        kind: str,
        name: str,
        start: float,
        duration: float,
        **payload: Any,
    ) -> None:
        """Record one event.  No-op when the profiler is disabled."""
        if not self.enabled:
            return
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        self._events.append(
            tuple.__new__(Event, (kind, name, start, duration, payload))
        )

    def mark(self) -> int:
        """Return a cursor to the current end of the trace."""
        return len(self._events)

    @property
    def events(self) -> Tuple[Event, ...]:
        """The full event trace as an immutable tuple."""
        return tuple(self._events)

    def events_since(self, cursor: int) -> Tuple[Event, ...]:
        """Events recorded after the given ``mark()`` cursor."""
        return tuple(self._events[cursor:])

    def iter_kind(self, kind: str) -> Iterator[Event]:
        """Iterate events of a single kind."""
        return (e for e in self._events if e.kind == kind)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def summary(self, since: int = 0) -> ProfileSummary:
        """Aggregate the trace (or its tail) into a :class:`ProfileSummary`.

        Each kind's time is summed in recording order, so a summary is a
        pure function of the events it covers.
        """
        time_by_kind: Dict[str, float] = defaultdict(float)
        count_by_kind: Dict[str, int] = defaultdict(int)
        bytes_by_kind: Dict[str, int] = defaultdict(int)
        pool_hits = 0
        pool_misses = 0
        for kind, _name, _start, duration, payload in self._events[since:]:
            if kind == SPAN:
                continue  # annotation over already-recorded device work
            time_by_kind[kind] += duration
            count_by_kind[kind] += 1
            if kind in _BYTE_FIELDS:
                bytes_by_kind[kind] += int(payload.get("nbytes", 0))
            elif kind == ALLOC:
                pool = payload.get("pool")
                if pool == "hit":
                    pool_hits += 1
                elif pool == "miss":
                    pool_misses += 1
        return _build_summary(
            time_by_kind, count_by_kind, bytes_by_kind, pool_hits, pool_misses
        )

    def window(self, since: int = 0) -> EventWindow:
        """Each kind's time and the latest end of the events after a
        ``mark()`` cursor, in one pass.

        A served request needs only these two, so this skips the counts,
        bytes and pool tallies of :meth:`summary`.
        """
        time_by_kind: Dict[str, float] = defaultdict(float)
        latest_end = -math.inf
        for kind, _name, start, duration, _payload in self._events[since:]:
            end = start + duration
            if end > latest_end:
                latest_end = end
            if kind != SPAN:
                time_by_kind[kind] += duration
        return EventWindow(dict(time_by_kind), latest_end)

    def kernel_histogram(self, since: int = 0) -> Dict[str, int]:
        """Launch count per kernel name (for fusion/ablation analysis)."""
        counts: Counter = Counter()
        for event in self._events[since:]:
            if event.kind == KERNEL:
                counts[event.name] += 1
        return dict(counts)

    def top_kernels(
        self, limit: int = 10, since: int = 0
    ) -> List[Tuple[str, float, int]]:
        """The ``limit`` most expensive kernels as (name, time, launches)."""
        time_by_name: Dict[str, float] = defaultdict(float)
        count_by_name: Counter = Counter()
        for event in self._events[since:]:
            if event.kind == KERNEL:
                time_by_name[event.name] += event.duration
                count_by_name[event.name] += 1
        ranked = sorted(time_by_name.items(), key=lambda kv: kv[1], reverse=True)
        return [
            (name, duration, count_by_name[name])
            for name, duration in ranked[:limit]
        ]


#: Chrome-trace track (tid) per hardware engine: kernels, the two copy
#: directions, and host-side compiles render as separate rows so stream
#: overlap is visible as side-by-side bars.
ENGINE_TRACKS = {
    "compute": 1,
    "copy_h2d": 2,
    "copy_d2h": 3,
}

#: Track for events that carry no engine (host/driver compiles).
_COMPILE_TRACK = 4

#: Track for allocator time (cudaMalloc / cudaFree / pool bookkeeping).
#: Only priced allocations land here — the legacy zero-cost alloc/free
#: bookkeeping events are still skipped, so pre-pool traces are unchanged.
_ALLOCATOR_TRACK = 5

#: Track for serving-layer request spans (arrival → completion).  Its
#: metadata row is emitted only when span events are present, so traces
#: from non-serving runs keep their historical byte-exact format.
_REQUEST_TRACK = 6

#: Track for peer (device-to-device) copy legs within a device group.
#: Conditional like the request track: single-device traces are unchanged.
_PEER_TRACK = 7

#: Track for simulated NVMe I/O (tiered-store third tier).  Conditional
#: like the request/peer tracks: traces without a tiered store keep
#: their historical byte-exact format.
_HOST_IO_TRACK = 8

#: Track for cluster network messages (NETWORK link tier between nodes).
#: Conditional like the request/peer/NVMe tracks: single-node traces keep
#: their historical byte-exact format.
_NET_TRACK = 9

#: Fallback tracks for events recorded without engine payloads (traces
#: produced before the stream subsystem, or hand-built events).
_TRACE_TRACKS = {
    KERNEL: 1,
    TRANSFER_H2D: 2,
    TRANSFER_D2H: 3,
    TRANSFER_D2D: _PEER_TRACK,
    COMPILE: _COMPILE_TRACK,
    ALLOC: _ALLOCATOR_TRACK,
    FREE: _ALLOCATOR_TRACK,
    SPAN: _REQUEST_TRACK,
    HOST_IO: _HOST_IO_TRACK,
    NET: _NET_TRACK,
}

#: Human-readable row names emitted as Chrome-trace thread metadata.
_TRACK_NAMES = {
    1: "compute engine",
    2: "copy engine H2D",
    3: "copy engine D2H",
    _COMPILE_TRACK: "driver (compile)",
    _ALLOCATOR_TRACK: "driver (allocator)",
}


def to_chrome_trace(
    events: Sequence[Event], pid: int = 0
) -> List[Dict[str, Any]]:
    """Convert events into Chrome tracing format (``chrome://tracing`` /
    Perfetto): a list of "X" (complete) events in microseconds.

    One row (tid) per hardware engine, so transfer/compute overlap across
    streams shows up as concurrent bars; the stream id rides along in
    ``args``.  Zero-duration bookkeeping events (alloc/free under the
    legacy free-allocation model) are skipped; priced allocator calls
    (cudaMalloc/pool paths) render on their own driver row.
    ``pid`` labels the process row — multi-device traces pass each
    device's group index so devices render as separate process groups.
    Prefer :func:`chrome_trace_json` when writing a file — it prepends
    the row-name metadata and has a stable field ordering.
    """
    trace: List[Dict[str, Any]] = []
    for event in events:
        if event.kind not in _TRACE_TRACKS:
            continue
        if event.kind in (ALLOC, FREE) and event.duration <= 0.0:
            continue  # zero-cost bookkeeping under the legacy allocator
        engine = event.payload.get("engine")
        tid = ENGINE_TRACKS.get(engine, _TRACE_TRACKS[event.kind])
        trace.append({
            "name": event.name,
            "cat": event.kind,
            "ph": "X",
            "ts": event.start * 1e6,
            "dur": event.duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(event.payload),
        })
    return trace


def track_metadata(
    events: Sequence[Event], pid: int = 0, process_name: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Metadata rows (thread/process names) for one device's events.

    Emits the engine-track thread names (plus the conditional request and
    peer-copy tracks) under ``pid``, and — when ``process_name`` is given
    — a ``process_name`` row so multi-device traces label each device.
    """
    track_names = dict(_TRACK_NAMES)
    if any(event.kind == SPAN for event in events):
        track_names[_REQUEST_TRACK] = "requests"
    if any(event.kind == TRANSFER_D2D for event in events):
        track_names[_PEER_TRACK] = "peer copies (D2D)"
    if any(event.kind == HOST_IO for event in events):
        track_names[_HOST_IO_TRACK] = "host I/O (NVMe)"
    if any(event.kind == NET for event in events):
        track_names[_NET_TRACK] = "network (cluster)"
    metadata: List[Dict[str, Any]] = []
    if process_name is not None:
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": process_name},
        })
    metadata.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": track_name},
        }
        for tid, track_name in sorted(track_names.items())
    )
    return metadata


def chrome_trace_json(events: Sequence[Event], indent: int = 1) -> str:
    """Render events as a complete Chrome-trace JSON document.

    The output is deterministic for a given event sequence: metadata rows
    first (one per engine track, in tid order), then the events in
    recording order, with a fixed field order throughout — so traces can
    be diffed and golden-tested.  Load the file at ``chrome://tracing``
    or https://ui.perfetto.dev to inspect the simulated timeline.
    """
    import json

    document = {
        "traceEvents": track_metadata(events, pid=0) + to_chrome_trace(events),
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, indent=indent)


def write_chrome_trace(path: str, events: Sequence[Event]) -> None:
    """Write :func:`chrome_trace_json` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(events))
        handle.write("\n")


def merge_summaries(summaries: List[ProfileSummary]) -> Optional[ProfileSummary]:
    """Combine summaries from repeated runs (used by the bench harness)."""
    if not summaries:
        return None
    time_by_kind: Dict[str, float] = defaultdict(float)
    count_by_kind: Counter = Counter()
    bytes_by_kind: Dict[str, int] = defaultdict(int)
    for s in summaries:
        for kind, duration in s.time_by_kind.items():
            time_by_kind[kind] += duration
        count_by_kind.update(s.count_by_kind)
        for kind, counter in _BYTE_FIELDS.items():
            bytes_by_kind[kind] += getattr(s, counter)
    return _build_summary(
        time_by_kind,
        count_by_kind,
        bytes_by_kind,
        sum(s.pool_hits for s in summaries),
        sum(s.pool_misses for s in summaries),
    )


def _build_summary(
    time_by_kind: Dict[str, float],
    count_by_kind: Dict[str, int],
    bytes_by_kind: Dict[str, int],
    pool_hits: int,
    pool_misses: int,
) -> ProfileSummary:
    """A :class:`ProfileSummary` from per-kind totals (SPAN excluded)."""
    time = time_by_kind.get
    return ProfileSummary(
        total_time=sum(time_by_kind.values()),
        time_by_kind=dict(time_by_kind),
        count_by_kind=dict(count_by_kind),
        kernel_count=count_by_kind.get(KERNEL, 0),
        kernel_time=time(KERNEL, 0.0),
        transfer_time=(
            time(TRANSFER_H2D, 0.0) + time(TRANSFER_D2H, 0.0) + time(TRANSFER_D2D, 0.0)
        ),
        compile_time=time(COMPILE, 0.0),
        alloc_time=time(ALLOC, 0.0) + time(FREE, 0.0),
        pool_hits=pool_hits,
        pool_misses=pool_misses,
        io_time=time(HOST_IO, 0.0),
        net_time=time(NET, 0.0),
        **{
            counter: bytes_by_kind.get(kind, 0)
            for kind, counter in _BYTE_FIELDS.items()
        },
    )
