"""Tests for the telemetry layer: registry semantics, histogram math, spans,
the event log, and the overhead bound that keeps instrumented hot paths flat."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.accelerator import random_workload, sqdm_config
from repro.core.report_cache import ReportCache
from repro.core.telemetry import (
    COUNT_BUCKETS,
    EventLog,
    MetricsRegistry,
    Span,
    Trace,
    current_span,
    get_registry,
    quantile_from_buckets,
    span,
)
from repro.serve.service import EvaluationService
from repro.serve.specs import SimulateJobSpec
from repro.serve.top import histogram_quantiles, parse_prometheus, sample_total


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_inc_and_value(self, registry):
        c = registry.counter("t_jobs_total", "jobs", labels=("kind",))
        c.inc(kind="sim")
        c.inc(2.0, kind="sim")
        c.inc(kind="sweep")
        assert c.value(kind="sim") == 3.0
        assert c.value(kind="sweep") == 1.0
        assert c.total() == 4.0

    def test_counters_reject_negative_increments(self, registry):
        c = registry.counter("t_down_total", "no")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_concurrent_increments_are_lossless(self, registry):
        c = registry.counter("t_race_total", "contended")
        rounds, workers = 2000, 8

        def hammer():
            for _ in range(rounds):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == rounds * workers

    def test_get_or_create_returns_same_object(self, registry):
        a = registry.counter("t_same_total", "x")
        b = registry.counter("t_same_total", "x")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("t_kind_total", "x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_kind_total", "x")

    def test_label_mismatch_raises(self, registry):
        registry.counter("t_labels_total", "x", labels=("kind",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("t_labels_total", "x", labels=("status",))
        c = registry.counter("t_labels_total", "x", labels=("kind",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(status="oops")


class TestGauges:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("t_depth", "queue")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6.0

    def test_callback_gauge_reads_live_state(self, registry):
        g = registry.gauge("t_live", "live")
        queue = [1, 2, 3]
        fn = lambda: float(len(queue))  # noqa: E731
        g.set_function(fn)
        assert g.value() == 3.0
        queue.pop()
        assert g.value() == 2.0

    def test_clear_function_only_clears_active_owner(self, registry):
        g = registry.gauge("t_owner", "owned")
        old, new = (lambda: 1.0), (lambda: 2.0)
        g.set_function(old)
        g.set_function(new)  # a newer owner claims the gauge
        g.clear_function(old)  # the old owner closing must not clobber it
        assert g.value() == 2.0
        g.clear_function(new)
        assert g.value() == 0.0

    def test_clear_function_falls_back_to_older_callback(self, registry):
        g = registry.gauge("t_fallback_owner", "owned")
        older, newer = (lambda: 3.0), (lambda: 7.0)
        g.set_function(older)
        g.set_function(newer)
        g.clear_function(newer)  # the newer owner closing hands the gauge back
        assert g.value() == 3.0

    def test_closing_service_leaves_older_service_gauges_live(self, monkeypatch):
        """A second service built and closed must not blank the first one's
        queue-depth gauge while the first is still running."""
        gate = threading.Event()
        first = EvaluationService(cache=ReportCache(), max_workers=1)
        dispatch = first._dispatch

        def held_dispatch(drained):
            gate.wait(30)
            dispatch(drained)

        monkeypatch.setattr(first, "_dispatch", held_dispatch)
        trace = [[random_workload(in_channels=8, spatial=4, seed=1, name="l0")]]
        spec = SimulateJobSpec(config=sqdm_config(), trace=trace)
        try:
            jobs = [first.submit(spec)]
            deadline = time.monotonic() + 10
            while first.service_stats()["queued"] and time.monotonic() < deadline:
                time.sleep(0.005)  # the scheduler took the first job and is held
            jobs += [first.submit(spec) for _ in range(2)]
            EvaluationService(max_workers=1).close()
            depth = get_registry().get("repro_service_queue_depth")
            assert depth is not None and depth.value() == 2.0
        finally:
            gate.set()
            first.close()
        assert all(job.result(timeout=30) == jobs[0].result() for job in jobs)

    def test_callback_errors_fall_back_to_stored_value(self, registry):
        g = registry.gauge("t_fallback", "safe")
        g.set(7.0)

        def boom():
            raise RuntimeError("collection must survive this")

        g.set_function(boom)
        assert g.value() == 7.0

    def test_labeled_callback_gauge_rejected(self, registry):
        g = registry.gauge("t_lbl", "labeled", labels=("kind",))
        with pytest.raises(ValueError, match="cannot be labeled"):
            g.set_function(lambda: 1.0)


class TestHistograms:
    def test_bucket_math(self, registry):
        h = registry.histogram("t_lat_seconds", "lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        cumulative, total, count = h.snapshot()
        assert cumulative == [1, 3, 4, 5]  # <=0.1, <=1, <=10, +Inf
        assert count == 5
        assert total == pytest.approx(56.05)

    def test_quantiles_interpolate_within_buckets(self, registry):
        h = registry.histogram("t_q_seconds", "q", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)  # all mass in the (1, 2] bucket
        p50 = h.quantile(0.5)
        assert 1.0 < p50 <= 2.0
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_of_empty_histogram_is_none(self, registry):
        h = registry.histogram("t_empty_seconds", "e")
        assert h.quantile(0.5) is None

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        # All observations beyond the last bound: the histogram cannot say
        # more than "at least the last finite bound".
        assert quantile_from_buckets((1.0, 2.0), [0, 0, 10], 0.99) == pytest.approx(2.0)

    def test_quantile_from_buckets_validates_q(self):
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1, 1], 1.5)

    def test_per_label_state_is_independent(self, registry):
        h = registry.histogram("t_kind_seconds", "k", labels=("kind",), buckets=(1.0,))
        h.observe(0.5, kind="sim")
        h.observe(0.5, kind="sim")
        h.observe(2.0, kind="sweep")
        assert h.count(kind="sim") == 2
        assert h.count(kind="sweep") == 1

    def test_buckets_must_increase(self, registry):
        with pytest.raises(ValueError, match="increasing"):
            registry.histogram("t_bad_seconds", "bad", buckets=(1.0, 1.0))


class TestPrometheusRendering:
    def test_text_format_shape(self, registry):
        c = registry.counter("t_reqs_total", "requests", labels=("method",))
        c.inc(method="GET")
        g = registry.gauge("t_depth", "queue depth")
        g.set(3)
        h = registry.histogram("t_lat_seconds", "latency", buckets=(0.5, 1.0))
        h.observe(0.2)
        text = registry.render_prometheus()
        assert "# HELP t_reqs_total requests\n# TYPE t_reqs_total counter" in text
        assert 't_reqs_total{method="GET"} 1' in text
        assert "# TYPE t_depth gauge" in text and "t_depth 3" in text
        assert 't_lat_seconds_bucket{le="0.5"} 1' in text
        assert 't_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "t_lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self, registry):
        c = registry.counter("t_esc_total", "esc", labels=("path",))
        c.inc(path='with "quotes" and \\slashes\\')
        text = registry.render_prometheus()
        assert 'path="with \\"quotes\\" and \\\\slashes\\\\"' in text

    def test_round_trips_through_the_top_parser(self, registry):
        c = registry.counter("t_rt_total", "rt", labels=("kind",))
        c.inc(3, kind="sim")
        c.inc(kind="sweep")
        h = registry.histogram("t_rt_seconds", "rt", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        samples = parse_prometheus(registry.render_prometheus())
        assert sample_total(samples, "t_rt_total") == 4.0
        assert sample_total(samples, "t_rt_total", kind="sim") == 3.0
        (p50,) = histogram_quantiles(samples, "t_rt_seconds", (0.5,))
        assert 1.0 < p50 <= 2.0

    def test_collect_is_json_friendly(self, registry):
        registry.counter("t_json_total", "x").inc()
        json.dumps(registry.collect())  # must not raise


class TestSpans:
    def test_span_times_the_region(self):
        with span("t.region") as s:
            time.sleep(0.01)
        assert s.duration is not None and s.duration >= 0.009

    def test_spans_nest_thread_locally(self):
        assert current_span() is None
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
                assert inner.parent is outer
            assert current_span() is outer
            assert outer.children == [inner]
        assert current_span() is None

    def test_span_observes_histogram(self, registry):
        h = registry.histogram("t_span_seconds", "s")
        with span("timed", histogram=h):
            pass
        assert h.count() == 1

    def test_span_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with span("failing"):
                raise RuntimeError("boom")
        assert current_span() is None

    def test_manual_span_finish_is_idempotent(self):
        s = Span("manual")
        first = s.finish().end
        assert s.finish().end == first


class TestTraces:
    def test_marks_and_elapsed(self):
        trace = Trace("job-0001")
        trace.mark("submitted")
        time.sleep(0.01)
        trace.mark("dispatched")
        trace.mark("finished", status="done")
        assert trace.phases() == ["submitted", "dispatched", "finished"]
        elapsed = trace.elapsed("submitted", "dispatched")
        assert elapsed is not None and elapsed >= 0.009
        assert trace.elapsed("submitted", "never") is None

    def test_marks_are_thread_safe(self):
        trace = Trace("job-0002")

        def mark_many():
            for _ in range(500):
                trace.mark("tick")

        threads = [threading.Thread(target=mark_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(trace.marks) == 2000


class TestEventLog:
    def test_off_by_default_and_writes_nothing(self):
        stream = io.StringIO()
        log = EventLog(level="off", stream=stream)
        log.emit("test.event", value=1)
        assert stream.getvalue() == ""
        assert not log.enabled("error")

    def test_emits_json_lines_at_enabled_levels(self):
        stream = io.StringIO()
        log = EventLog(level="info", stream=stream)
        log.emit("job.finished", status="done", duration_s=0.5)
        log.emit("noise", level="debug")  # below threshold: dropped
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "job.finished"
        assert record["status"] == "done"
        assert record["level"] == "info"
        assert "ts" in record

    def test_reads_level_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        assert EventLog().enabled("debug")
        monkeypatch.delenv("REPRO_LOG")
        assert not EventLog().enabled("error")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            EventLog(level="verbose")

    def test_closed_stream_never_raises(self):
        stream = io.StringIO()
        log = EventLog(level="info", stream=stream)
        stream.close()
        log.emit("after.close")  # must not raise


class TestOverhead:
    def test_instrumentation_cost_is_bounded(self, registry):
        """The hot paths run one counter inc and one histogram observe per
        operation; both must stay far below anything that could move tier-1
        runtime (bound is ~100x slack over observed cost, for loaded CI)."""
        c = registry.counter("t_hot_total", "hot", labels=("kind",))
        h = registry.histogram("t_hot_seconds", "hot")
        ops = 20_000
        began = time.perf_counter()
        for _ in range(ops):
            c.inc(kind="sim")
            h.observe(0.001)
        per_op = (time.perf_counter() - began) / ops
        assert per_op < 500e-6, f"telemetry costs {per_op * 1e6:.1f}us per op"

    def test_disabled_event_log_is_near_free(self):
        log = EventLog(level="off", stream=io.StringIO())
        ops = 50_000
        began = time.perf_counter()
        for _ in range(ops):
            log.emit("hot.path", level="debug", value=1)
        per_op = (time.perf_counter() - began) / ops
        assert per_op < 50e-6, f"disabled log costs {per_op * 1e6:.1f}us per emit"


class TestCountBuckets:
    def test_shape_buckets_cover_fleet_scales(self):
        h = MetricsRegistry().histogram("t_batch", "b", buckets=COUNT_BUCKETS)
        h.observe(16)
        h.observe(128)
        cumulative, _, count = h.snapshot()
        assert count == 2 and cumulative[-1] == 2
