"""Property test: a profile summary is an in-order fold of its events.

Random event mixes over all ten kinds are recorded, and for every
``mark()`` cursor the summary must equal a brute-force fold of the
events after it: each kind's time summed in recording order from 0.0
(floats compared bit for bit), counts, bytes and pool hits exact.
``window`` must give the summary's times and the latest event end.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.gpu.profiler import (  # noqa: E402
    ALLOC,
    COMPILE,
    FREE,
    HOST_IO,
    KERNEL,
    NET,
    SPAN,
    TRANSFER_D2D,
    TRANSFER_D2H,
    TRANSFER_H2D,
    Profiler,
    merge_summaries,
)

KINDS = [
    KERNEL, TRANSFER_H2D, TRANSFER_D2H, TRANSFER_D2D,
    COMPILE, ALLOC, FREE, SPAN, HOST_IO, NET,
]
BYTE_COUNTERS = {
    TRANSFER_H2D: "bytes_h2d",
    TRANSFER_D2H: "bytes_d2h",
    TRANSFER_D2D: "bytes_d2d",
    HOST_IO: "bytes_io",
    NET: "bytes_net",
}

_DURATIONS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-6, 0.1, 0.2, 1e300]),
)


@st.composite
def _event(draw):
    kind = draw(st.sampled_from(KINDS))
    payload = {}
    if draw(st.booleans()):  # some events carry no ``nbytes``
        payload["nbytes"] = draw(st.integers(min_value=0, max_value=1 << 40))
    if kind == ALLOC:
        pool = draw(st.sampled_from([None, "hit", "miss"]))
        if pool is not None:
            payload["pool"] = pool
    return kind, draw(_DURATIONS), payload


def _fold(events):
    """The summary's numbers, folded one event at a time."""
    time, count = {}, {}
    nbytes = dict.fromkeys(BYTE_COUNTERS.values(), 0)
    hits = misses = 0
    for kind, duration, payload in events:
        if kind == SPAN:
            continue
        time[kind] = time.get(kind, 0.0) + duration
        count[kind] = count.get(kind, 0) + 1
        if kind in BYTE_COUNTERS:
            nbytes[BYTE_COUNTERS[kind]] += payload.get("nbytes", 0)
        if kind == ALLOC:
            hits += payload.get("pool") == "hit"
            misses += payload.get("pool") == "miss"
    return time, count, nbytes, hits, misses


def _assert_summary(summary, time, count, nbytes, hits, misses):
    def total(*kinds):
        value = 0.0
        for index, kind in enumerate(kinds):
            part = time.get(kind, 0.0)
            value = part if index == 0 else value + part
        return value.hex()

    assert list(summary.time_by_kind) == list(time)
    assert [t.hex() for t in summary.time_by_kind.values()] == [
        t.hex() for t in time.values()
    ]
    assert summary.count_by_kind == count
    grand = 0
    for value in time.values():
        grand += value
    assert float(summary.total_time).hex() == float(grand).hex()
    assert summary.kernel_count == count.get(KERNEL, 0)
    assert summary.kernel_time.hex() == total(KERNEL)
    assert summary.transfer_time.hex() == total(
        TRANSFER_H2D, TRANSFER_D2H, TRANSFER_D2D
    )
    assert summary.compile_time.hex() == total(COMPILE)
    assert summary.alloc_time.hex() == total(ALLOC, FREE)
    assert summary.io_time.hex() == total(HOST_IO)
    assert summary.net_time.hex() == total(NET)
    for counter, value in nbytes.items():
        assert getattr(summary, counter) == value, counter
    assert (summary.pool_hits, summary.pool_misses) == (hits, misses)


@settings(max_examples=150, deadline=None)
@given(st.lists(_event(), max_size=40))
def test_summary_is_an_in_order_fold_for_every_cursor(events):
    profiler = Profiler()
    for kind, duration, payload in events:
        profiler.record(kind, "e", 0.0, duration, **payload)
    for since in range(len(events) + 1):
        _assert_summary(profiler.summary(since), *_fold(events[since:]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_event(), max_size=30), st.integers(min_value=0, max_value=30))
def test_merge_adds_the_summaries_in_order(events, cut):
    profiler = Profiler()
    for kind, duration, payload in events:
        profiler.record(kind, "e", 0.0, duration, **payload)
    cut = min(cut, len(events))
    parts = [profiler.summary(0), profiler.summary(cut)]
    time, count, nbytes, hits, misses = {}, {}, {}, 0, 0
    for part in parts:
        for kind, seconds in part.time_by_kind.items():
            time[kind] = time.get(kind, 0.0) + seconds
        for kind, launches in part.count_by_kind.items():
            count[kind] = count.get(kind, 0) + launches
        for counter in BYTE_COUNTERS.values():
            nbytes[counter] = nbytes.get(counter, 0) + getattr(part, counter)
        hits += part.pool_hits
        misses += part.pool_misses
    _assert_summary(merge_summaries(parts), time, count, nbytes, hits, misses)


_STARTS = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from([0.0, 0.1, 0.3, 1e300]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_event(), _STARTS), max_size=40))
def test_window_is_the_summary_times_and_the_latest_end(events):
    """``window`` gives, bit for bit, what a served request read before it
    existed: ``summary(since).time_by_kind``, and the largest ``end`` of
    ``events_since(since)``, SPAN included."""
    profiler = Profiler()
    for (kind, duration, payload), start in events:
        profiler.record(kind, "e", start, duration, **payload)
    for since in range(len(events) + 1):
        window = profiler.window(since)
        want = profiler.summary(since).time_by_kind
        assert list(window.time_by_kind) == list(want)
        assert [t.hex() for t in window.time_by_kind.values()] == [
            t.hex() for t in want.values()
        ]
        ends = [event.end for event in profiler.events_since(since)]
        assert window.latest_end == max(ends, default=float("-inf"))
