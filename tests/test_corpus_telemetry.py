"""Tests for live corpus monitoring: the stall watchdog, the status
file sink, and the ``top`` / ``--progress`` CLI surface."""

import json
import multiprocessing
import os
import shutil

import pytest

from repro import obs
from repro.cli import main
from repro.corpus import WorkerPool, discover_jobs, open_cache, run_corpus
from repro.corpus import telemetry
from repro.corpus.runner import FAULT_DELAY_ENV
from repro.corpus.telemetry import (
    STATUS_BASENAME,
    STATUS_KIND,
    StatusFile,
    read_status_file,
    write_status_file,
)

EXAMPLE_CORPUS = os.path.join(
    os.path.dirname(__file__), "..", "examples", "files", "corpus"
)

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


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "recipes.schema").write_text(RECIPES_SCHEMA)
    (root / "select.tdx").write_text(SELECT_TDX)
    (root / "manifest.txt").write_text("select.tdx recipes.schema\n")
    return root


class TestStatusFile:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / STATUS_BASENAME)
        write_status_file(path, {"done": 3, "total": 5})
        payload = read_status_file(path)
        assert payload["kind"] == STATUS_KIND
        assert payload["done"] == 3

    def test_read_rejects_foreign_json(self, tmp_path):
        path = str(tmp_path / "other.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": "something-else"}, handle)
        with pytest.raises(ValueError, match=STATUS_KIND):
            read_status_file(path)


class TestStallWatchdogEndToEnd:
    def test_injected_hang_produces_stall_warning_and_status_file(
        self, corpus, tmp_path, monkeypatch
    ):
        # A per-job timeout forces the pool path (the parent-side
        # prefilter would otherwise resolve this safe job inline), and
        # the injected delay outlasts the stall threshold.
        monkeypatch.setenv(FAULT_DELAY_ENV, "select:1.2")
        status_path = str(tmp_path / STATUS_BASENAME)
        jobs = discover_jobs(str(corpus))
        with obs.recording(log_level=obs.WARNING) as recorder:
            summary = run_corpus(
                jobs,
                max_workers=1,
                timeout=30,
                stall_after=0.4,
                on_event=StatusFile(status_path),
            )
        assert summary.results[0].verdict != "timeout"
        stalls = [
            event.to_dict() for event in recorder.events
            if event.to_dict()["logger"] == "corpus.stall"
        ]
        assert stalls, "stall watchdog never fired"
        # The dump is a real faulthandler traceback of the hung worker,
        # joined to a span id the --log JSONL can resolve.
        assert "thread" in stalls[0]["fields"]["stack"].lower()
        assert "span_id" in stalls[0]
        status = read_status_file(status_path)
        assert status["finished"] is True
        assert status["total"] == 1
        assert status["job_ms"]["count"] >= 1


class TestCliSurface:
    def test_top_once_renders_a_frame(self, tmp_path, capsys):
        path = str(tmp_path / STATUS_BASENAME)
        write_status_file(path, {
            "ts": 100.0, "pid": 7, "total": 4, "cache_hits": 1,
            "to_run": 3, "done": 2, "queue_depth": 1,
            "verdicts": {"safe": 2},
            "workers": [{
                "job_id": "select.tdx x recipes.schema",
                "elapsed": 1.25, "stalled": True,
            }],
            "job_ms": {"count": 2, "p50": 10.0, "p90": 20.0,
                       "p99": 30.0, "max": 31.0, "min": 5.0, "sum": 41.0},
            "finished": False,
        })
        assert main(["top", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "2/4" in out
        assert "STALLED" in out

    def test_top_once_without_status_file_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing.json")
        assert main(["top", missing, "--once"]) == 2
        assert "status" in capsys.readouterr().err

    def test_top_resolves_directory_to_default_basename(self, tmp_path, capsys):
        write_status_file(
            os.path.join(str(tmp_path), STATUS_BASENAME),
            {"total": 1, "done": 1, "to_run": 0, "cache_hits": 0,
             "verdicts": {}, "workers": [], "finished": True},
        )
        assert main(["top", str(tmp_path), "--once"]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_batch_progress_flags_are_mutually_exclusive(self, corpus, capsys):
        with pytest.raises(SystemExit):
            main(["batch", str(corpus), "--progress", "--no-progress"])

    def test_batch_no_progress_runs_and_writes_status(self, corpus, capsys):
        code = main([
            "batch", str(corpus), "--no-progress", "--no-cache",
            "--format", "json",
        ])
        assert code == 0
        status = read_status_file(os.path.join(str(corpus), STATUS_BASENAME))
        assert status["finished"] is True

    def test_batch_metrics_writes_openmetrics(self, corpus, tmp_path, capsys):
        from repro.obs.metrics import validate_openmetrics

        metrics_path = str(tmp_path / "metrics.prom")
        code = main([
            "batch", str(corpus), "--no-progress", "--no-cache",
            "--format", "json", "--metrics", metrics_path,
        ])
        assert code == 0
        with open(metrics_path, encoding="utf-8") as handle:
            families = validate_openmetrics(handle.read())
        assert any(name.startswith("repro_corpus") for name in families)


class TestStallOnSharedPool:
    def test_one_warning_per_stalled_job(self, corpus, monkeypatch):
        # The watchdog is armed per job inside the worker, so a shared
        # pool (serve's) needs no initializer for it.  The hang spans
        # two heartbeats that both find the dump, and still yields one
        # warning.
        monkeypatch.setenv(FAULT_DELAY_ENV, "select:2.2")
        pool = WorkerPool(1)
        try:
            with obs.recording(log_level=obs.WARNING) as recorder:
                summary = run_corpus(
                    discover_jobs(str(corpus)), timeout=30,
                    stall_after=0.4, pool=pool,
                )
        finally:
            pool.shutdown()
        assert summary.results[0].verdict == "safe"
        stalls = [
            event.to_dict() for event in recorder.events
            if event.to_dict()["logger"] == "corpus.stall"
        ]
        assert len(stalls) == 1
        fields = stalls[0]["fields"]
        assert fields["job_id"] == summary.results[0].job_id
        assert "(most recent call first)" in fields["stack"]
        assert "_maybe_inject_delay" in fields["stack"]


class TestNoManagerProcess:
    def test_stall_watch_and_status_file_without_a_manager(
        self, corpus, tmp_path, monkeypatch
    ):
        def no_manager(*args, **kwargs):
            raise AssertionError("a corpus run must not start a Manager")

        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        status_path = str(tmp_path / STATUS_BASENAME)
        summary = run_corpus(
            discover_jobs(str(corpus)), max_workers=1, timeout=30,
            stall_after=5, on_event=StatusFile(status_path),
        )
        assert summary.results[0].verdict == "safe"
        status = read_status_file(status_path)
        assert status["finished"] is True
        assert status["done"] == status["total"] == 1


class TestStatusFileCounts:
    def test_documents_count_cache_hits_and_never_go_back(
        self, tmp_path, monkeypatch
    ):
        corpus = str(tmp_path / "corpus")
        shutil.copytree(
            EXAMPLE_CORPUS, corpus, ignore=shutil.ignore_patterns(".repro-*")
        )
        jobs = discover_jobs(corpus)
        cache = open_cache(corpus)
        run_corpus(jobs[:3], timeout=30, cache=cache)
        documents = []
        write = telemetry.write_status_file

        def capture(path, payload):
            documents.append(payload)
            write(path, payload)

        monkeypatch.setattr(telemetry, "write_status_file", capture)
        # timeout= sends every miss to the pool.
        summary = run_corpus(
            jobs, timeout=30, cache=cache,
            on_event=StatusFile(str(tmp_path / STATUS_BASENAME)),
        )
        assert summary.cache_hits == 3
        first, last = documents[0], documents[-1]
        assert first["done"] == 3
        assert sum(first["verdicts"].values()) == 3
        for before, after in zip(documents, documents[1:]):
            assert after["done"] >= before["done"]
            for verdict, count in before["verdicts"].items():
                assert after["verdicts"].get(verdict, 0) >= count
        assert last["done"] == last["total"] == 6
        assert last["verdicts"] == {
            verdict: count
            for verdict, count in summary.verdict_counts().items() if count
        }
        assert last["finished"] is True
