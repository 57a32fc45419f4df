"""Tests for the span-correlated structured log (repro.obs.log), its
process-boundary transport (Snapshot events/spans), the Chrome-trace
join, the live batch progress reporter, and the HTML report."""

import io
import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.corpus import ProgressReporter, analyze_pair, run_corpus
from repro.corpus.manifest import JobSpec

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


def _span_ids(recorder):
    ids = set()

    def walk(span):
        ids.add(span.span_id)
        for child in span.children:
            walk(child)

    for root in recorder.spans:
        walk(root)
    return ids


def _payload_span_ids(spans):
    ids = set()
    stack = list(spans)
    while stack:
        node = stack.pop()
        ids.add(node["id"])
        stack.extend(node.get("children", ()))
    return ids


class TestEmission:
    def test_no_recorder_is_a_noop(self):
        obs.info("anywhere", "nothing listens")  # must not raise

    def test_recorder_without_log_level_buffers_nothing(self):
        with obs.recording() as recorder:
            obs.error("x", "dropped")
        assert recorder.events == []

    def test_level_threshold(self):
        with obs.recording(log_level=obs.WARNING) as recorder:
            obs.debug("x", "below")
            obs.info("x", "below")
            obs.warning("x", "kept")
            obs.error("x", "kept too")
        assert [e.message for e in recorder.events] == ["kept", "kept too"]

    def test_events_carry_the_active_span(self):
        with obs.recording(log_level=obs.DEBUG) as recorder:
            obs.info("x", "outside")
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.info("x", "inside", states=7)
        outside, inside = recorder.events
        assert outside.span_id is None
        inner = recorder.spans[0].children[0]
        assert inside.span_id == inner.span_id
        assert inside.parent_span_id == inner.parent_id
        assert inside.fields == {"states": 7}
        assert inside.pid == os.getpid()

    def test_jsonl_round_trip(self, tmp_path):
        with obs.recording(log_level=obs.INFO) as recorder:
            with obs.span("s"):
                obs.info("logger.a", "first", n=1)
                obs.warning("logger.b", "second")
        path = str(tmp_path / "run.jsonl")
        assert obs.write_log_jsonl(recorder, path) == 2
        events = obs.read_log_jsonl(path)
        assert [e.message for e in events] == ["first", "second"]
        assert events[0].fields == {"n": 1}
        assert events[0].span_id == recorder.spans[0].span_id
        assert events[1].level == obs.WARNING

    def test_parse_level_rejects_unknown(self):
        with pytest.raises(ValueError):
            obs.parse_level("loud")


class TestChromeTraceJoin:
    def test_log_events_export_as_instants_that_resolve(self):
        with obs.recording(log_level=obs.DEBUG) as recorder:
            with obs.span("outer"):
                obs.info("x", "hello", k=1)
        trace = obs.to_chrome_trace(recorder)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        payload = instants[0]["args"]
        assert payload["message"] == "hello"
        assert payload["span_id"] in {e["args"]["id"] for e in xs}

    def test_span_ids_round_trip_through_the_trace(self):
        with obs.recording(log_level=obs.INFO) as recorder:
            with obs.span("a"):
                with obs.span("b"):
                    obs.info("x", "m")
        trace = obs.to_chrome_trace(recorder)
        roots = obs.spans_from_chrome_trace(trace)
        assert [r.name for r in roots] == ["a"]
        assert roots[0].span_id == recorder.spans[0].span_id
        child = roots[0].children[0]
        assert child.span_id == recorder.spans[0].children[0].span_id
        assert child.parent_id == roots[0].span_id


class TestSnapshotTransport:
    def _worker_snapshot(self, message, counter=1.0):
        with obs.recording(log_level=obs.DEBUG) as recorder:
            with obs.span("corpus.job"):
                obs.add("work", counter)
                obs.info("job", message)
        return obs.Snapshot.from_recorder(recorder)

    def test_merge_keeps_order_and_never_duplicates(self):
        left = self._worker_snapshot("first")
        right = self._worker_snapshot("second")
        merged = left.merge(right)
        assert [e["message"] for e in merged.events] == ["first", "second"]
        assert len(merged.spans) == 2
        ids = _payload_span_ids(merged.spans)
        assert len(ids) == 2  # collision-free re-numbering
        for event in merged.events:
            assert event["span_id"] in ids
        # Inputs are untouched (merge returns a new snapshot).
        assert len(left.events) == 1 and len(right.events) == 1

    def test_merge_round_trips_through_dicts(self):
        snapshot = self._worker_snapshot("only")
        clone = obs.Snapshot.from_dict(snapshot.to_dict())
        assert clone.events == snapshot.events
        assert clone.spans == snapshot.spans

    def test_merge_into_grafts_under_the_active_span(self):
        snapshot = self._worker_snapshot("shipped")
        with obs.recording(log_level=obs.DEBUG) as recorder:
            with obs.span("batch.run"):
                obs.info("parent", "before")
                snapshot.merge_into(recorder)
        assert [e.message for e in recorder.events] == ["before", "shipped"]
        ids = _span_ids(recorder)
        for event in recorder.events:
            assert event.span_id in ids
        grafted = recorder.spans[0].children[0]
        assert grafted.name == "corpus.job"
        assert grafted.parent_id == recorder.spans[0].span_id
        assert recorder.counters["work"] == 1.0

    def test_merge_into_drops_events_when_parent_is_not_logging(self):
        snapshot = self._worker_snapshot("dropped")
        with obs.recording() as recorder:
            snapshot.merge_into(recorder)
        assert recorder.events == []
        assert len(recorder.spans) == 1  # spans still graft for --trace

    def test_without_replayable_state_strips_events_and_spans(self):
        snapshot = self._worker_snapshot("stale")
        stripped = obs.Snapshot.from_dict(
            snapshot.without_replayable_state().to_dict()
        )
        assert stripped.events == [] and stripped.spans == []
        assert stripped.counters == snapshot.counters


class TestWorkerBoundary:
    def test_analyze_pair_ships_events_in_observations(self, files):
        result = analyze_pair(
            files["copying"], files["schema"], log_level=obs.INFO
        )
        snapshot = obs.Snapshot.from_dict(result.observations)
        messages = [e["message"] for e in snapshot.events]
        assert "analysis started" in messages
        assert "analysis finished" in messages
        ids = _payload_span_ids(snapshot.spans)
        for event in snapshot.events:
            assert event["span_id"] in ids

    def test_run_corpus_carries_worker_events_into_the_parent(self, files):
        from repro.lint.dataflow import prefilter_disabled

        spec = JobSpec(
            transducer_path=files["select"],
            schema_path=files["schema"],
            transducer_name="select.tdx",
            schema_name="recipes.schema",
        )
        # The dataflow gate would run this proven-safe job inline in the
        # parent; force pool submission — this test is about shipping
        # events across the worker boundary.
        with obs.recording(log_level=obs.INFO) as recorder:
            with obs.span("batch.run"):
                with prefilter_disabled():
                    run_corpus([spec], max_workers=1, cache=None)
        messages = [e.message for e in recorder.events]
        assert "corpus run started" in messages
        assert "analysis finished" in messages  # emitted inside the worker
        ids = _span_ids(recorder)
        assert all(e.span_id in ids for e in recorder.events)
        pids = {e.pid for e in recorder.events}
        assert len(pids) == 2  # parent + worker

    def test_cache_hits_never_replay_stale_events(self, files, tmp_path):
        from repro.corpus import open_cache

        spec = JobSpec(
            transducer_path=files["select"],
            schema_path=files["schema"],
            transducer_name="select.tdx",
            schema_name="recipes.schema",
        )
        cache_dir = str(tmp_path / "cache")
        with obs.recording(log_level=obs.INFO):
            run_corpus(
                [spec], max_workers=1,
                cache=open_cache(str(files["dir"]), cache_dir),
            )
        with obs.recording(log_level=obs.INFO) as rerun:
            with obs.span("batch.run"):
                summary = run_corpus(
                    [spec], max_workers=1,
                    cache=open_cache(str(files["dir"]), cache_dir),
                )
        assert summary.cache_hits == 1
        assert all(
            e.message != "analysis finished" for e in rerun.events
        ), "a cache hit replayed the worker's log"


class TestProgressReporter:
    class _Tty(io.StringIO):
        def isatty(self):
            return True

    BEGIN = {"phase": "begin", "total": 6, "cache_hits": 2, "to_run": 4,
             "cached_verdicts": {"safe": 2}}
    PROGRESS = {"done": 1, "to_run": 4, "queue_depth": 0, "in_flight": [
        {"job_id": "slow.tdx x b.schema", "elapsed": 3.2, "stalled": False},
    ]}
    FINISH = {"phase": "finish", "summary": {"jobs": 6}}

    def _job(self, verdict="unsafe", done=1):
        from repro.corpus.runner import JobResult

        job = JobResult(
            job_id="a.tdx x b.schema", transducer="a.tdx", schema="b.schema",
            verdict=verdict, wall_time_s=0.5,
        ).to_dict()
        job["observations"] = {}
        return {"job": job, "verdict": verdict, "done": done}

    def test_silent_on_piped_streams(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter("run", self.BEGIN)
        reporter("job", self._job())
        reporter("progress", self.PROGRESS)
        reporter("run", self.FINISH)
        assert stream.getvalue() == ""

    def test_live_line_on_a_tty(self, monkeypatch):
        stream = self._Tty()
        monkeypatch.setattr("sys.stdout", self._Tty())
        reporter = ProgressReporter(stream=stream)
        reporter("run", self.BEGIN)
        reporter("progress", self.PROGRESS)
        reporter("job", self._job(done=2))
        reporter("run", self.FINISH)
        output = stream.getvalue()
        assert "\r" in output
        assert "batch 1/4 done" in output
        assert "running slow.tdx x b.schema (3.2s)" in output
        assert "unsafe  a.tdx x b.schema" in output
        assert output.endswith("\r\x1b[2K")  # the live line is cleared

    def test_explicit_live_override(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, live=True)
        reporter("run", {"phase": "begin", "total": 1, "cache_hits": 0,
                         "to_run": 1, "cached_verdicts": {}})
        assert "batch 0/1 done" in stream.getvalue()


class TestCliSurface:
    def test_check_log_joins_against_trace(self, files, tmp_path, capsys):
        log = str(tmp_path / "run.jsonl")
        trace = str(tmp_path / "trace.json")
        status = main([
            "check", files["copying"], files["schema"],
            "--log", log, "--log-level", "debug", "--trace", trace,
        ])
        assert status == 1
        events = [json.loads(line) for line in open(log)]
        assert events, "no events written"
        with open(trace) as handle:
            payload = json.load(handle)
        span_ids = {
            e["args"]["id"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert all(e["span_id"] in span_ids for e in events)
        assert capsys.readouterr().err.count("wrote") == 2

    def test_batch_jsonl_stdout_stays_clean_with_log(self, files, tmp_path, capsys):
        corpus_dir = str(files["dir"])
        log = str(tmp_path / "batch.jsonl")
        status = main([
            "batch", corpus_dir, "--no-cache", "--format", "json",
            "--log", log,
        ])
        assert status == 1  # the copying pair fails the audit
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            json.loads(line)  # machine-clean stdout
        events = [json.loads(line) for line in open(log)]
        assert len({e["pid"] for e in events}) >= 2  # worker events shipped

    def test_report_command_is_self_contained(self, files, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        log = str(tmp_path / "run.jsonl")
        main([
            "check", files["select"], files["schema"],
            "--trace", trace, "--log", log,
        ])
        out_html = str(tmp_path / "obs.html")
        status = main([
            "report", "--trace", trace, "--log", log,
            "--output", out_html,
        ])
        assert status == 0
        html = open(out_html).read()
        assert "Span waterfall" in html
        assert "http://" not in html and "https://" not in html
        assert len(html.encode()) < 1_048_576

    def test_report_placeholders_without_inputs(self, tmp_path, capsys):
        out_html = str(tmp_path / "obs.html")
        status = main(["report", "--output", out_html])
        assert status == 0
        html = open(out_html).read()
        assert "No trace supplied" in html
        assert "No corpus report supplied" in html
