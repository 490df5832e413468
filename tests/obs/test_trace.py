"""Tracing spans: nesting, timing, the null recorder, and exporters."""

import json
import time

import numpy as np
import pytest

from repro.obs import get_tracer, render_span_tree, span_to_dict
from repro.obs.trace import NullSpan, Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


class TestNesting:
    def test_children_attach_to_parent(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        (root,) = tracer.take_roots()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert root.children[0].children == []

    def test_durations_nest(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.01)
        assert inner.duration >= 0.01
        assert outer.duration >= inner.duration

    def test_take_roots_drains(self, tracer):
        with tracer.span("a"):
            pass
        assert [s.name for s in tracer.take_roots()] == ["a"]
        assert tracer.take_roots() == []

    def test_annotate_adds_attrs(self, tracer):
        with tracer.span("a", x=1) as sp:
            sp.annotate(y=2)
        (root,) = tracer.take_roots()
        assert root.attrs == {"x": 1, "y": 2}

    def test_span_open_across_generator_suspension(self, tracer):
        """The store's scan() holds a span open while yielding blocks."""

        def scanner():
            with tracer.span("scan"):
                yield 1
                yield 2

        with tracer.span("outer"):
            for __ in scanner():
                with tracer.span("work"):
                    pass
        (root,) = tracer.take_roots()
        assert root.name == "outer"
        names = sorted(c.name for c in root.children)
        assert "scan" in names
        scan = next(c for c in root.children if c.name == "scan")
        assert [c.name for c in scan.children] == ["work", "work"]


class TestDisabled:
    def test_disabled_returns_shared_null_span(self):
        t = Tracer()
        a = t.span("x", big=1)
        b = t.span("y")
        assert isinstance(a, NullSpan)
        assert a is b  # one shared instance: no allocation per call

    def test_disabled_records_nothing(self):
        t = Tracer()
        with t.span("x") as sp:
            sp.annotate(n=1)
        assert t.roots == []
        assert t.take_roots() == []

    def test_fresh_tracer_disabled_by_default(self):
        assert not Tracer().enabled


class TestExport:
    def test_render_tree_aggregates_siblings(self, tracer):
        with tracer.span("root"):
            for i in range(5):
                with tracer.span("child", idx=i):
                    pass
        text = render_span_tree(tracer.take_roots())
        assert "root" in text
        assert "child  x5" in text  # one aggregated line, not five
        assert "idx" not in text  # differing attrs dropped from the group

    def test_render_tree_keeps_common_attrs(self, tracer):
        with tracer.span("scan", store="MemoryStore"):
            pass
        text = render_span_tree(tracer.take_roots())
        assert "store=MemoryStore" in text

    def test_span_to_dict_roundtrips_json(self, tracer):
        with tracer.span("outer", method="rf"):
            with tracer.span("inner"):
                pass
        (root,) = tracer.take_roots()
        record = span_to_dict(root)
        parsed = json.loads(json.dumps(record))
        assert parsed["name"] == "outer"
        assert parsed["attrs"] == {"method": "rf"}
        assert parsed["children"][0]["name"] == "inner"
        assert parsed["duration_s"] >= 0


class TestThreadLocalStacks:
    def test_worker_thread_spans_root_independently(self, tracer):
        """A span opened on another thread must not nest under this
        thread's open span — each thread owns its own stack."""
        import threading

        def worker():
            with tracer.span("worker.op"):
                pass

        with tracer.span("main.op"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            # the worker span finished with nothing beneath it on ITS
            # stack, so it landed in roots while main.op is still open
            assert [s.name for s in tracer.roots] == ["worker.op"]
        names = sorted(s.name for s in tracer.take_roots())
        assert names == ["main.op", "worker.op"]

    def test_current_span_is_per_thread(self, tracer):
        import threading

        seen = {}

        def worker():
            seen["worker"] = tracer.current_span()

        with tracer.span("outer") as outer:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert tracer.current_span() is outer
        assert seen["worker"] is None
        assert tracer.current_span() is None


class TestAdoption:
    def test_mark_and_take_roots_since(self, tracer):
        with tracer.span("before"):
            pass
        mark = tracer.mark_roots()
        with tracer.span("after.a"):
            pass
        with tracer.span("after.b"):
            pass
        since = tracer.take_roots_since(mark)
        assert [s.name for s in since] == ["after.a", "after.b"]
        assert [s.name for s in tracer.take_roots()] == ["before"]

    def test_adopt_under_parent(self, tracer):
        with tracer.span("orphan"):
            pass
        (orphan,) = tracer.take_roots()
        with tracer.span("map") as map_span:
            tracer.adopt([orphan], map_span)
        (root,) = tracer.take_roots()
        assert [c.name for c in root.children] == ["orphan"]

    def test_adopt_as_roots(self, tracer):
        with tracer.span("x"):
            pass
        (x,) = tracer.take_roots()
        tracer.adopt([x])
        assert [s.name for s in tracer.take_roots()] == ["x"]

    def test_adopt_does_not_reobserve_histograms(self, tracer):
        """Re-parenting must not double-count span.*.s — the observations
        already arrived (shared registry or merged worker deltas)."""
        from repro.obs import get_registry

        hist = get_registry().histogram("span.adoptee.s")
        before = hist.count
        with tracer.span("adoptee"):
            pass
        (adoptee,) = tracer.take_roots()
        assert hist.count == before + 1
        with tracer.span("map") as map_span:
            tracer.adopt([adoptee], map_span)
        tracer.take_roots()
        assert hist.count == before + 1  # the adoptee was not replayed

    def test_reset_clears_stack_and_roots(self, tracer):
        with tracer.span("done"):
            pass
        open_span = tracer.span("open")
        open_span.__enter__()
        tracer.reset()
        assert tracer.roots == []
        assert tracer.current_span() is None
        open_span.__exit__(None, None, None)  # exits quietly post-reset
        assert tracer.roots == []


class TestSpanRoundtrip:
    def test_span_from_dict_rebuilds_the_tree(self, tracer):
        from repro.obs import span_from_dict

        with tracer.span("outer", method="rf"):
            with tracer.span("inner"):
                pass
        (root,) = tracer.take_roots()
        rebuilt = span_from_dict(span_to_dict(root))
        assert rebuilt.name == "outer"
        assert rebuilt.attrs == {"method": "rf"}
        assert rebuilt.duration == pytest.approx(root.duration)
        assert [c.name for c in rebuilt.children] == ["inner"]
        # a rebuilt span is adoptable by any tracer
        tracer.adopt([rebuilt])
        assert [s.name for s in tracer.take_roots()] == ["outer"]


class TestObserveSession:
    def test_observe_captures_spans_and_metrics(self):
        from repro.obs import get_registry, observe

        tracer = get_tracer()
        was = tracer.enabled
        with observe("unit", trace=True) as report:
            with tracer.span("step"):
                pass
            get_registry().inc("obs.test.counter", 7)
        assert tracer.enabled is was  # state restored
        assert report.elapsed_s > 0
        assert any(s.name == "step" for s in report.spans)
        assert report.metrics["obs.test.counter"] == 7
        assert "step" in report.render()

    def test_observe_appends_jsonl(self, tmp_path):
        from repro.obs import observe

        path = tmp_path / "bench.jsonl"
        for __ in range(2):
            with observe("unit") as report:
                pass
            report.append_to(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "unit"

    def test_summary_line_prints_every_headline_counter(self):
        from repro.obs import catalog
        from repro.obs.context import ObsReport

        report = ObsReport("fig8")
        report.elapsed_s = 12.345
        report.minor_faults = 4_096
        report.metrics = {
            catalog.STORE_FULL_SCANS: 5,
            catalog.ML_LINEAR_BATCHED_PROBLEMS: 347_833,
            catalog.ML_LINEAR_SCALAR_FALLBACKS: 316_083,
        }
        assert report.summary_line() == (
            "fig8: 12.35s  full_scans=5  region_reads=0  fits=0"
            "  batched_problems=347833  scalar_fallbacks=316083"
            "  minor_faults=4096"
        )

    def test_a_session_counts_its_minor_faults(self):
        from repro.obs import observe

        with observe("unit") as report:
            touched = np.ones(1 << 21)  # 16 MB, written page by page
        assert touched.sum() == 1 << 21
        assert report.minor_faults >= 1
        assert report.summary_line().endswith(f"  minor_faults={report.minor_faults}")


def test_bench_journal_appends(tmp_path):
    from repro.obs import BenchJournal

    journal = BenchJournal(tmp_path / "BENCH_x.json", context={"suite": "t"})
    journal.record("bench_a", 0.25, metrics={"store.full_scans": 1})
    journal.record("bench_a", 0.30)
    lines = (tmp_path / "BENCH_x.json").read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["name"] == "bench_a"
    assert first["suite"] == "t"
    assert first["metrics"] == {"store.full_scans": 1}
    assert "timestamp" in first
