"""Tests for the repro.obs instrumentation layer and its CLI surface."""

import json
import time

import pytest

from repro import obs
from repro.cli import main

RECIPES_SCHEMA = """
start recipes
recipes -> recipe*
recipe -> description . comments
description -> text
comments -> comment*
comment -> text
"""

SELECT_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel)
rule qsel description -> description(q)
text q
"""

COPYING_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel qsel)
rule qsel description -> description(q)
text q
"""


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "recipes.schema"
    schema.write_text(RECIPES_SCHEMA)
    select = tmp_path / "select.tdx"
    select.write_text(SELECT_TDX)
    copying = tmp_path / "copying.tdx"
    copying.write_text(COPYING_TDX)
    return {
        "schema": str(schema),
        "select": str(select),
        "copying": str(copying),
        "dir": tmp_path,
    }


class TestSpans:
    def test_nesting_and_timing(self):
        with obs.recording() as recorder:
            with obs.span("outer") as outer:
                time.sleep(0.002)
                with obs.span("inner") as inner:
                    inner.set("k", 1)
                outer.set("states", 7)
        assert [root.name for root in recorder.spans] == ["outer"]
        root = recorder.spans[0]
        assert [child.name for child in root.children] == ["inner"]
        assert root.attrs == {"states": 7}
        assert root.children[0].attrs == {"k": 1}
        assert root.end_ns is not None
        assert root.duration_ns >= 2_000_000  # the sleep
        assert root.duration_ns >= root.children[0].duration_ns

    def test_sequential_roots(self):
        with obs.recording() as recorder:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert [root.name for root in recorder.spans] == ["first", "second"]
        assert recorder.total_duration_ns() > 0

    def test_find(self):
        with obs.recording() as recorder:
            with obs.span("a"):
                with obs.span("b"):
                    pass
        assert recorder.find("b").name == "b"
        assert recorder.find("missing") is None

    def test_exception_closes_span(self):
        with obs.recording() as recorder:
            with pytest.raises(RuntimeError):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        assert recorder.spans[0].end_ns is not None


class TestCounters:
    def test_counters_and_gauges(self):
        with obs.recording() as recorder:
            obs.add("x.count")
            obs.add("x.count", 2)
            obs.set_gauge("x.gauge", 5)
            obs.gauge_max("x.peak", 3)
            obs.gauge_max("x.peak", 9)
            obs.gauge_max("x.peak", 4)
        assert recorder.counters == {"x.count": 3}
        assert recorder.gauges == {"x.gauge": 5, "x.peak": 9}

    def test_isolation_between_recordings(self):
        with obs.recording() as first:
            obs.add("only.first")
        with obs.recording() as second:
            obs.add("only.second")
        assert "only.second" not in first.counters
        assert "only.first" not in second.counters

    def test_nested_recording_shadows_outer(self):
        with obs.recording() as outer:
            obs.add("seen.outer")
            with obs.recording() as inner:
                obs.add("seen.inner")
            obs.add("seen.outer")
        assert outer.counters == {"seen.outer": 2}
        assert inner.counters == {"seen.inner": 1}


class TestSnapshot:
    def test_from_recorder_and_round_trip(self):
        with obs.recording() as recorder:
            with obs.span("work"):
                obs.add("jobs.done", 2)
                obs.set_gauge("mem.peak_kb", 512)
        snapshot = obs.Snapshot.from_recorder(recorder)
        assert snapshot.counters == {"jobs.done": 2}
        assert snapshot.gauges == {"mem.peak_kb": 512}
        assert snapshot.wall_time_ns == recorder.total_duration_ns()
        # The dict form survives JSON (the cross-process wire format).
        payload = json.loads(json.dumps(snapshot.to_dict()))
        restored = obs.Snapshot.from_dict(payload)
        assert restored == snapshot

    def test_from_dict_defaults(self):
        snapshot = obs.Snapshot.from_dict({})
        assert snapshot.counters == {} and snapshot.gauges == {}
        assert snapshot.wall_time_ns == 0

    def test_merge_semantics(self):
        left = obs.Snapshot(counters={"a": 1, "b": 2}, gauges={"g": 5}, wall_time_ns=10)
        right = obs.Snapshot(counters={"b": 3, "c": 4}, gauges={"g": 2, "h": 7},
                             wall_time_ns=5)
        merged = left.merge(right)
        assert merged.counters == {"a": 1, "b": 5, "c": 4}
        assert merged.gauges == {"g": 5, "h": 7}  # gauges keep the max
        assert merged.wall_time_ns == 15
        # merge() is non-destructive.
        assert left.counters == {"a": 1, "b": 2}

    def test_merge_into_recorder(self):
        snapshot = obs.Snapshot(counters={"jobs": 2}, gauges={"peak": 9})
        with obs.recording() as recorder:
            obs.add("jobs", 1)
            obs.set_gauge("peak", 4)
            snapshot.merge_into(recorder)
            snapshot.merge_into(recorder, prefix="corpus.")
        assert recorder.counters == {"jobs": 3, "corpus.jobs": 2}
        assert recorder.gauges == {"peak": 9, "corpus.peak": 9}


class TestDisabledMode:
    def test_disabled_is_noop(self):
        assert not obs.enabled()
        assert obs.current() is None
        assert obs.span("anything") is obs.NULL_SPAN
        # All no-ops, nothing raised, nothing recorded anywhere.
        obs.add("nothing")
        obs.set_gauge("nothing", 1)
        obs.gauge_max("nothing", 1)
        with obs.span("ctx") as sp:
            sp.set("k", "v")
        assert not obs.NULL_SPAN  # falsy, so `if obs.enabled()` guards work

    def test_instrumented_code_runs_without_recorder(self):
        # The instrumented PTIME pipeline must work untouched when off.
        from repro.core.topdown_analysis import is_text_preserving
        from repro.workloads import chain_instance

        transducer, schema = chain_instance(3)
        assert not obs.enabled()
        assert is_text_preserving(transducer, schema)


class TestRecordingNeverTracesMemory:
    """A recorder must not start tracemalloc: it made the exponential
    procedures several times slower whenever one was installed."""

    @pytest.fixture(autouse=True)
    def forbid_tracemalloc(self, monkeypatch):
        import tracemalloc

        def start(*args):
            raise AssertionError("tracemalloc.start() called under a recorder")

        monkeypatch.setattr(tracemalloc, "start", start)

    def test_mso_compile(self):
        from repro.mso.ast import ExistsFO, Lab, Not
        from repro.mso.compile import clear_compile_cache, compile_mso

        clear_compile_cache()
        with obs.recording() as recorder:
            compile_mso(Not(ExistsFO("x", Lab("a", "x"))), ("a",))
        assert recorder.gauges["mso.compile.automaton_states"] >= 1

    def test_typecheck(self):
        from repro.core.topdown import TopDownTransducer
        from repro.core.typecheck import typechecks
        from repro.schema.dtd import DTD, dtd_to_nta

        dtd = DTD({"r": "text"}, start={"r"})
        identity = TopDownTransducer(
            states={"q0", "q"},
            rules={("q0", "r"): "r(q)", ("q", "text"): "text"},
            initial="q0",
        )
        with obs.recording() as recorder:
            assert typechecks(identity, dtd_to_nta(dtd), dtd)
        assert recorder.gauges["typecheck.inverse_type_states"] >= 1


class TestDecisionProceduresRecordAtTheirBoundary:
    """The Theorem 4.11, §6, DTL and §7 procedures record spans, exact
    counters and their decided events, but no histogram and no debug
    event restating them."""

    def test_no_histograms_and_no_debug_events(self):
        from repro.core.dtl_analysis import is_text_preserving_dtl
        from repro.core.safety import maximal_safe_subschema
        from repro.core.topdown_analysis import counter_example, is_text_preserving
        from repro.core.typecheck import typechecks
        from repro.lint.dataflow import prefilter_disabled
        from repro.mso.compile import clear_compile_cache
        from repro.paper import example42_transducer
        from tests.test_core_dtl_analysis import ab_schema, swap_dtl
        from tests.test_core_safety import optional_b_schema, swap_transducer
        from tests.test_core_typecheck import RECIPES, figure2_dtd

        clear_compile_cache()
        with prefilter_disabled(), obs.recording(log_level=obs.DEBUG) as recorder:
            assert not is_text_preserving(swap_transducer(), optional_b_schema())
            assert counter_example(swap_transducer(), optional_b_schema()) is not None
            assert typechecks(example42_transducer(), RECIPES, figure2_dtd())
            assert not is_text_preserving_dtl(swap_dtl(), ab_schema())
            maximal_safe_subschema(swap_transducer(), optional_b_schema(), ["a"])
        for name in ("ptime.copying", "typecheck.inverse_type", "dtl.rearranging",
                     "mso.compile", "safety.subschema"):
            assert recorder.find(name) is not None, name
        assert recorder.histograms == {}
        assert [event.message for event in recorder.events
                if event.level == obs.DEBUG] == []


class TestExporters:
    def _example_recorder(self):
        with obs.recording() as recorder:
            with obs.span("root") as sp:
                sp.set("states", 4)
                with obs.span("child"):
                    obs.add("c.n", 2)
            obs.set_gauge("g", 1.5)
        return recorder

    def test_text_render(self):
        recorder = self._example_recorder()
        text = obs.render_text(recorder)
        assert "root" in text
        assert "  child" in text  # indented under its parent
        assert "states=4" in text
        assert "counters:" in text
        assert "c.n" in text
        assert "gauges:" in text

    def test_chrome_trace_round_trip(self):
        recorder = self._example_recorder()
        trace = obs.to_chrome_trace(recorder)
        assert "traceEvents" in trace
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases == {"M", "X", "C"}
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
        roots = obs.spans_from_chrome_trace(trace)
        assert [root.name for root in roots] == ["root"]
        assert roots[0].children[0].name == "child"
        assert roots[0].attrs == {"states": 4}

    def test_write_chrome_trace(self, tmp_path):
        recorder = self._example_recorder()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(recorder, str(path))
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)


class TestPipelineCounters:
    def test_ptime_pipeline_records(self):
        from repro.core.topdown_analysis import is_copying, is_rearranging
        from repro.lint.dataflow import prefilter_disabled
        from repro.workloads import chain_instance

        transducer, schema = chain_instance(3)
        with prefilter_disabled():
            with obs.recording() as recorder:
                is_copying(transducer, schema)
                is_rearranging(transducer, schema)
        assert recorder.find("ptime.copying") is not None
        assert recorder.find("ptime.emptiness") is not None
        assert recorder.counters["ptime.product_states"] > 0
        assert recorder.counters["nta.created"] > 0

    def test_ptime_pipeline_prefilter_skips_recorded(self):
        from repro.core.topdown_analysis import is_copying, is_rearranging
        from repro.workloads import chain_instance

        # chain instances are copy-free, so with pre-filtering on the
        # expensive products are never built — the trace must say why.
        transducer, schema = chain_instance(3)
        with obs.recording(log_level=obs.INFO) as recorder:
            assert is_copying(transducer, schema) is False
            assert is_rearranging(transducer, schema) is False
        assert recorder.counters["dataflow.prefilter.skips"] >= 2
        assert recorder.counters["dataflow.passes_run"] > 0
        skips = [e for e in recorder.events if e.logger == "dataflow.prefilter"]
        assert {e.fields["responsible_pass"] for e in skips} == {"copy-degree", "text-flow"}

    def test_mso_compile_records(self):
        from repro.mso.ast import ExistsFO, Lab, Not
        from repro.mso.compile import clear_compile_cache, compile_mso

        sentence = Not(ExistsFO("x", Lab("a", "x")))
        clear_compile_cache()
        with obs.recording() as recorder:
            compile_mso(sentence, ("a",))
        root = recorder.find("mso.compile")
        assert root is not None
        assert root.attrs["formula_size"] >= 3
        assert recorder.counters["mso.negations"] >= 1
        with obs.recording() as second:
            compile_mso(sentence, ("a",))
        assert second.counters["mso.compile.cache_hits"] >= 1

    def test_lint_memo_counters(self, files):
        from repro.cli import load_schema, load_transducer
        from repro.lint.engine import run_lint

        with obs.recording() as recorder:
            run_lint(load_transducer(files["select"]), load_schema(files["schema"]))
        assert recorder.counters["lint.memo.misses"] > 0
        root = recorder.find("lint.run")
        assert root is not None
        assert root.attrs["memo_misses"] > 0


class TestCli:
    def test_check_stats_goes_to_stderr(self, files, capsys):
        status = main(["check", files["select"], files["schema"], "--stats"])
        assert status == 0
        captured = capsys.readouterr()
        assert "ptime.copying" in captured.err
        assert "counters:" in captured.err
        assert "ptime.copying" not in captured.out  # stdout stays pipeable

    def test_check_trace_writes_valid_trace(self, files, capsys):
        trace_path = files["dir"] / "trace.json"
        status = main(["check", files["select"], files["schema"], "--trace", str(trace_path)])
        assert status == 0
        payload = json.loads(trace_path.read_text())
        assert any(event["ph"] == "X" for event in payload["traceEvents"])
        capsys.readouterr()

    def test_lint_json_has_memo_stats(self, files, capsys):
        status = main(["lint", files["select"], files["schema"], "--format", "json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["memo_misses"] > 0
        assert payload["stats"]["memo_hits"] >= 0

    def test_profile_prints_phases_and_coverage(self, files, capsys):
        status = main(["profile", files["copying"], files["schema"]])
        assert status == 0
        out = capsys.readouterr().out
        assert "phase.path_automata" in out
        assert "phase.product" in out
        assert "phase.emptiness" in out
        assert "phase coverage:" in out
        assert "verdict: copying=True" in out
        coverage = float(out.split("phase coverage: ")[1].split("%")[0])
        assert coverage >= 90.0

    def test_profile_trace(self, files, capsys):
        trace_path = files["dir"] / "profile_trace.json"
        status = main(
            ["profile", files["select"], files["schema"], "--trace", str(trace_path)]
        )
        assert status == 0
        payload = json.loads(trace_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "phase.product" in names
        capsys.readouterr()
