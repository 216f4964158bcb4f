"""Unit tests for the profiler event trace."""

import pytest

from repro.gpu.profiler import (
    COMPILE,
    KERNEL,
    TRANSFER_D2H,
    TRANSFER_H2D,
    Event,
    Profiler,
    merge_summaries,
)


def _filled_profiler() -> Profiler:
    profiler = Profiler()
    profiler.record(KERNEL, "a", 0.0, 0.1, elements=10)
    profiler.record(KERNEL, "b", 0.1, 0.2)
    profiler.record(KERNEL, "a", 0.3, 0.3)
    profiler.record(TRANSFER_H2D, "up", 0.6, 0.05, nbytes=1000)
    profiler.record(TRANSFER_D2H, "down", 0.65, 0.01, nbytes=8)
    profiler.record(COMPILE, "jit", 0.66, 0.02)
    return profiler


class TestProfiler:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Profiler().record("teleport", "x", 0.0, 1.0)

    def test_disabled_profiler_records_nothing(self):
        profiler = Profiler(enabled=False)
        profiler.record(KERNEL, "a", 0.0, 0.1)
        assert len(profiler) == 0

    def test_event_end(self):
        event = Event(KERNEL, "k", 1.0, 0.5)
        assert event.end == pytest.approx(1.5)
        keyword = Event(kind=KERNEL, name="k", start=1.0, duration=0.5,
                        payload={"nbytes": 8})
        assert keyword.end == event.end
        assert keyword.payload == {"nbytes": 8}

    def test_event_fields_cannot_be_assigned(self):
        event = Event(KERNEL, "k", 1.0, 0.5)
        for field in ("kind", "name", "start", "duration", "payload"):
            with pytest.raises(AttributeError):
                setattr(event, field, None)

    def test_hand_built_event_payload_is_empty_and_read_only(self):
        event = Event(KERNEL, "k", 1.0, 0.5)
        assert dict(event.payload) == {}
        with pytest.raises(TypeError):
            event.payload["nbytes"] = 8
        assert dict(Event(KERNEL, "k", 2.0, 0.5).payload) == {}

    def test_recorded_event_carries_its_payload(self):
        profiler = Profiler()
        profiler.record(TRANSFER_H2D, "up", 0.5, 0.25, nbytes=1000)
        (event,) = profiler.events
        assert event == Event(TRANSFER_H2D, "up", 0.5, 0.25, {"nbytes": 1000})
        assert isinstance(event, Event)
        assert event.end == 0.75

    def test_summary_aggregates(self):
        summary = _filled_profiler().summary()
        assert summary.kernel_count == 3
        assert summary.kernel_time == pytest.approx(0.6)
        assert summary.transfer_time == pytest.approx(0.06)
        assert summary.compile_time == pytest.approx(0.02)
        assert summary.bytes_h2d == 1000
        assert summary.bytes_d2h == 8
        assert summary.total_time == pytest.approx(0.68)

    def test_summary_fraction(self):
        summary = _filled_profiler().summary()
        assert summary.fraction(KERNEL) == pytest.approx(0.6 / 0.68)
        assert Profiler().summary().fraction(KERNEL) == 0.0

    def test_mark_and_slice(self):
        profiler = Profiler()
        profiler.record(KERNEL, "before", 0.0, 0.1)
        cursor = profiler.mark()
        profiler.record(KERNEL, "after", 0.1, 0.2)
        tail = profiler.events_since(cursor)
        assert [e.name for e in tail] == ["after"]
        assert profiler.summary(since=cursor).kernel_count == 1

    def test_kernel_histogram(self):
        histogram = _filled_profiler().kernel_histogram()
        assert histogram == {"a": 2, "b": 1}

    def test_top_kernels_ranked_by_time(self):
        top = _filled_profiler().top_kernels(limit=2)
        assert top[0][0] == "a"  # 0.4s total
        assert top[0][1] == pytest.approx(0.4)
        assert top[0][2] == 2
        assert top[1][0] == "b"

    def test_iter_kind(self):
        profiler = _filled_profiler()
        kernels = list(profiler.iter_kind(KERNEL))
        assert len(kernels) == 3

    def test_clear(self):
        profiler = _filled_profiler()
        profiler.clear()
        assert len(profiler) == 0


class TestMergeSummaries:
    def test_empty_returns_none(self):
        assert merge_summaries([]) is None

    def test_merge_adds_up(self):
        first = _filled_profiler().summary()
        second = _filled_profiler().summary()
        merged = merge_summaries([first, second])
        assert merged.kernel_count == 6
        assert merged.kernel_time == pytest.approx(1.2)
        assert merged.bytes_h2d == 2000
