"""The structured-tracing subsystem: spans, counters, merge, export."""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.trace import (
    Tracer,
    capture,
    count,
    format_report,
    gauge,
    get_tracer,
    load_trace,
    span,
)


class TestSpans:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("stage"):
            pass
        assert t.spans == {}

    def test_single_span(self):
        t = Tracer(enabled=True)
        with t.span("stage", n=7):
            pass
        assert "stage" in t.spans
        stats = t.spans["stage"]
        assert stats["count"] == 1
        assert stats["wall"] >= 0.0
        assert stats["attrs"]["n"] == 7

    def test_nested_spans_join_paths(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        assert set(t.spans) == {"outer", "outer/inner"}
        assert t.spans["outer/inner"]["count"] == 2

    def test_span_stack_unwinds_on_exception(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("boom")
        assert t.current_path() == ""
        # both spans were still recorded on the way out
        assert set(t.spans) == {"outer", "outer/inner"}

    def test_repeated_span_aggregates(self):
        t = Tracer(enabled=True)
        for _ in range(5):
            with t.span("step"):
                pass
        assert t.spans["step"]["count"] == 5
        assert t.spans["step"]["max_wall"] <= t.spans["step"]["wall"]


class TestCountersAndGauges:
    def test_count_accumulates(self):
        t = Tracer(enabled=True)
        t.count("items", 3)
        t.count("items", 4)
        assert t.counters["items"] == 7

    def test_gauge_overwrites(self):
        t = Tracer(enabled=True)
        t.gauge("level", 1.5)
        t.gauge("level", 2.5)
        assert t.gauges["level"] == 2.5

    def test_module_helpers_hit_global_tracer(self):
        with capture(enabled=True) as t:
            with span("work"):
                count("widgets", 2)
            gauge("depth", 3)
        assert t.spans["work"]["count"] == 1
        assert t.counters["widgets"] == 2
        assert t.gauges["depth"] == 3


class TestCapture:
    def test_capture_isolates_and_restores(self):
        before = get_tracer()
        with capture(enabled=True) as t:
            assert get_tracer() is t
            count("inside", 1)
        assert get_tracer() is before
        assert "inside" not in before.counters

    def test_capture_disabled(self):
        with capture(enabled=False) as t:
            with span("ignored"):
                count("ignored", 1)
        assert t.spans == {}
        assert t.counters == {}


def _worker_chunk(args):
    """Top-level so ProcessPoolExecutor can pickle it under spawn."""
    chunk_id, n, trace_enabled = args
    with capture(enabled=trace_enabled) as tracer:
        with span("chunk", chunk=chunk_id):
            count("items_processed", n)
    return tracer.snapshot()


class TestMerge:
    def test_merge_counters_across_process_pool(self):
        parent = Tracer(enabled=True)
        tasks = [(i, 10 * (i + 1), True) for i in range(3)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            snaps = list(pool.map(_worker_chunk, tasks))
        for snap in snaps:
            parent.merge(snap, prefix="pool")
        assert parent.counters["items_processed"] == 10 + 20 + 30
        assert parent.spans["pool/chunk"]["count"] == 3

    def test_merge_without_prefix(self):
        a = Tracer(enabled=True)
        b = Tracer(enabled=True)
        with a.span("stage"):
            pass
        with b.span("stage"):
            pass
        a.merge(b.snapshot())
        assert a.spans["stage"]["count"] == 2

    def test_merge_takes_max_of_gauges(self):
        a = Tracer(enabled=True)
        b = Tracer(enabled=True)
        a.gauge("peak", 1.0)
        b.gauge("peak", 5.0)
        a.merge(b.snapshot())
        assert a.gauges["peak"] == 5.0


class TestExport:
    def test_json_round_trip(self, tmp_path):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner", n=4):
                t.count("things", 9)
        t.gauge("size", 2.0)
        path = tmp_path / "trace.json"
        t.save(path)
        doc = load_trace(path)
        assert doc["version"] == 1
        assert set(doc["spans"]) == {"outer", "outer/inner"}
        assert doc["counters"]["things"] == 9
        assert doc["gauges"]["size"] == 2.0
        # and the document is plain JSON all the way down
        json.dumps(doc)

    def test_format_report_lists_stages_and_counters(self):
        t = Tracer(enabled=True)
        with t.span("simulate"):
            with t.span("transport"):
                pass
        t.count("particles_stepped", 1000)
        t.count("remote_bytes_sent", 2048)
        text = format_report(t.to_dict())
        assert "simulate" in text
        assert "transport" in text
        assert "particles_stepped" in text
        assert "KB" in text  # *bytes counters humanized

    def test_snapshot_is_detached(self):
        t = Tracer(enabled=True)
        with t.span("stage"):
            pass
        snap = t.snapshot()
        snap["spans"]["stage"]["count"] = 999
        assert t.spans["stage"]["count"] == 1


class TestPipelineTracing:
    def test_beam_pipeline_emits_stage_spans(self):
        from repro.core.config import BeamPipelineConfig
        from repro.core.pipeline import beam_pipeline

        config = BeamPipelineConfig(frame_every=5)
        config.beam.n_particles = 1500
        config.beam.n_cells = 1
        with capture(enabled=True) as t:
            beam_pipeline(config, render=False)
        for stage in ("simulate", "partition", "extract"):
            assert stage in t.spans, f"missing stage span {stage!r}"
        assert t.counters["particles_stepped"] > 0
        assert t.counters["particles_routed"] > 0
