"""Unit tests for the telemetry hub."""

import pytest

from repro.runtime.telemetry import (
    KNOWN_EVENTS,
    TelemetryEvent,
    TelemetryHub,
    TraceLog,
    to_prometheus,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTelemetryHub:
    def test_counters_accumulate_per_event_name(self):
        hub = TelemetryHub()
        hub.emit("probe_start")
        hub.emit("probe_start")
        hub.emit("cache_hit")
        assert hub.counters == {"probe_start": 2, "cache_hit": 1}

    def test_callback_receives_structured_events(self):
        clock = FakeClock()
        seen = []
        hub = TelemetryHub(on_event=seen.append, clock=clock)
        clock.advance(1.5)
        hub.emit("probe_finish", size=7, throughput="1/4")
        (event,) = seen
        assert isinstance(event, TelemetryEvent)
        assert event.name == "probe_finish"
        assert event.data == {"size": 7, "throughput": "1/4"}
        assert event.elapsed_s == pytest.approx(1.5)

    def test_event_to_dict_flattens_payload(self):
        event = TelemetryEvent("bounds_exact", {"size": 7}, 2.0)
        assert event.to_dict() == {"event": "bounds_exact", "elapsed_s": 2.0, "size": 7}

    def test_no_callback_is_fine(self):
        hub = TelemetryHub()
        hub.emit("run_start", graph="g")  # must not raise
        assert hub.counters["run_start"] == 1

    def test_callback_errors_propagate(self):
        def explode(event):
            raise RuntimeError("consumer bug")

        hub = TelemetryHub(on_event=explode)
        with pytest.raises(RuntimeError, match="consumer bug"):
            hub.emit("run_start")

    def test_timers_aggregate_count_and_total(self):
        hub = TelemetryHub()
        hub.record_time("probe", 0.25)
        hub.record_time("probe", 0.5)
        assert hub.timers["probe"]["count"] == 2
        assert hub.timers["probe"]["total_s"] == pytest.approx(0.75)

    def test_timed_context_uses_clock(self):
        clock = FakeClock()
        hub = TelemetryHub(clock=clock)
        with hub.timed("section"):
            clock.advance(3.0)
        assert hub.timers["section"]["total_s"] == pytest.approx(3.0)

    def test_snapshot_is_json_ready(self):
        import json

        clock = FakeClock()
        hub = TelemetryHub(clock=clock)
        hub.emit("probe_start")
        hub.record_time("probe", 0.1)
        clock.advance(2.0)
        snapshot = hub.snapshot()
        assert snapshot["elapsed_s"] == pytest.approx(2.0)
        assert snapshot["counters"] == {"probe_start": 1}
        assert snapshot["timers"]["probe"]["count"] == 1
        json.dumps(snapshot)  # must serialise

    def test_memory_constant_no_event_buffer(self):
        hub = TelemetryHub()
        for _ in range(10_000):
            hub.emit("cache_hit")
        # Only the counter grows, no per-event storage.
        assert hub.counters == {"cache_hit": 10_000}

    def test_known_events_documented(self):
        for name in ("probe_start", "pool_restart", "budget_exhausted", "checkpoint_saved"):
            assert name in KNOWN_EVENTS


class TestMerge:
    def test_counters_fold_additively(self):
        server, job = TelemetryHub(), TelemetryHub()
        server.emit("probe_finish")
        job.emit("probe_finish")
        job.emit("probe_finish")
        job.emit("cache_hit")
        assert server.merge(job) is server
        assert server.counters == {"probe_finish": 3, "cache_hit": 1}

    def test_timers_fold_count_and_total(self):
        server, job = TelemetryHub(), TelemetryHub()
        server.record_time("probe", 0.5)
        job.record_time("probe", 0.25)
        job.record_time("probe", 0.25)
        job.record_time("startup", 1.0)
        server.merge(job)
        assert server.timers["probe"]["count"] == 3
        assert server.timers["probe"]["total_s"] == pytest.approx(1.0)
        assert server.timers["startup"]["count"] == 1

    def test_merge_accepts_snapshot_payloads(self):
        job = TelemetryHub()
        job.emit("bounds_exact")
        job.record_time("probe", 2.0)
        server = TelemetryHub()
        server.merge(job.snapshot())
        assert server.counters == {"bounds_exact": 1}
        assert server.timers["probe"] == {"count": 1, "total_s": 2.0}

    def test_merge_does_not_mutate_source(self):
        server, job = TelemetryHub(), TelemetryHub()
        job.emit("cache_hit")
        server.merge(job)
        server.merge(job)  # aggregating twice doubles the server only
        assert job.counters == {"cache_hit": 1}
        assert server.counters == {"cache_hit": 2}


class TestToPrometheus:
    def test_counters_render_as_labelled_family(self):
        hub = TelemetryHub()
        hub.emit("probe_finish")
        hub.emit("probe_finish")
        text = to_prometheus(hub)
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{event="probe_finish"} 2' in text

    def test_timers_render_summary_count_and_sum(self):
        hub = TelemetryHub()
        hub.record_time("probe", 0.5)
        hub.record_time("probe", 1.5)
        text = to_prometheus(hub)
        assert 'repro_timer_seconds_count{timer="probe"} 2' in text
        assert 'repro_timer_seconds_sum{timer="probe"} 2.0' in text

    def test_uptime_and_trailing_newline(self):
        clock = FakeClock()
        hub = TelemetryHub(clock=clock)
        clock.advance(4.0)
        text = to_prometheus(hub)
        assert "repro_uptime_seconds 4.0" in text
        assert text.endswith("\n")

    def test_extra_gauges_with_labels(self):
        hub = TelemetryHub()
        text = to_prometheus(
            hub,
            gauges=[
                ("queue_depth", {}, 3.0),
                ("jobs", {"state": "queued"}, 2.0),
                ("jobs", {"state": "done"}, 5.0),
            ],
        )
        assert "repro_queue_depth 3.0" in text
        assert 'repro_jobs{state="queued"} 2.0' in text
        assert 'repro_jobs{state="done"} 5.0' in text
        assert text.count("# TYPE repro_jobs gauge") == 1

    def test_label_values_escaped(self):
        hub = TelemetryHub()
        hub.emit('weird"name\nwith\\escapes')
        text = to_prometheus(hub)
        assert 'event="weird\\"name\\nwith\\\\escapes"' in text

    def test_exposition_lines_well_formed(self):
        hub = TelemetryHub()
        hub.emit("probe_start")
        hub.record_time("probe", 0.1)
        for line in to_prometheus(hub).splitlines():
            assert line.startswith("#") or " " in line  # sample lines: name value


class TestTraceLog:
    def test_annotate_keeps_the_span_name(self):
        log = TraceLog()
        log.record("t1", "POST /v1/jobs", status=202)
        log.annotate("t1", job={"state": "done"})
        assert log.get("t1") == {
            "trace_id": "t1",
            "name": "POST /v1/jobs",
            "status": 202,
            "job": {"state": "done"},
        }

    def test_annotation_before_the_request_span_survives_it(self):
        # A job may finish before its POST handler records the span.
        log = TraceLog()
        log.annotate("t1", job={"state": "done"})
        log.record("t1", "POST /v1/jobs", status=202)
        span = log.get("t1")
        assert span["name"] == "POST /v1/jobs"
        assert span["job"] == {"state": "done"}

    def test_annotations_respect_the_ring_limit(self):
        log = TraceLog(limit=2)
        for trace_id in ("a", "b", "c"):
            log.annotate(trace_id, job={})
        assert [span["trace_id"] for span in log.spans()] == ["b", "c"]
