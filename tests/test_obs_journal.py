"""Tests for the crash-safe obs journal and the one artifact reader.

The journal's contract is exercised at every layer: CRC framing and
torn-tail tolerance on the byte level, rotation/retention/fsync and
crash records on the writer, replay back into live-process shapes
(request table, merged Snapshot, Chrome trace, OpenMetrics), and the
``python -m repro journal`` / ``batch --journal`` / ``report
--journal`` CLI surfaces.  The reader tests feed every artifact kind
to every command that reads runs.  The serve-daemon crash-recovery
path (SIGKILL + restart) lives in ``test_serve_recovery.py``; the one
subprocess here is the process that crashes with a journal open.
"""

import contextlib
import faulthandler
import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro import obs
from repro.cli import main
from repro.obs import journal as journal_module
from repro.obs.journal import (
    JOURNAL_KIND,
    TERMINAL_PHASES,
    Journal,
    journal_segments,
    read_journal,
    read_segment,
    record_crc,
    replay_journal,
    scan_journal,
    segment_name,
    segment_number,
    tail_records,
)
from repro.obs.html import render_report_html
from repro.obs.metrics import validate_openmetrics

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

MANIFEST = """
select.tdx recipes.schema
copying.tdx recipes.schema
"""


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "recipes.schema").write_text(RECIPES_SCHEMA)
    (root / "select.tdx").write_text(SELECT_TDX)
    (root / "copying.tdx").write_text(COPYING_TDX)
    (root / "manifest.txt").write_text(MANIFEST)
    return root


class TestFraming:
    def test_crc_is_stable_under_key_order(self):
        a = {"seq": 1, "ts": 2.0, "type": "meta", "data": {"x": 1}}
        b = {"data": {"x": 1}, "type": "meta", "ts": 2.0, "seq": 1}
        assert record_crc(a) == record_crc(b)
        # The crc key itself never enters the frame.
        a["crc"] = "deadbeef"
        assert record_crc(a) == record_crc(b)

    def test_round_trip_through_a_segment(self, tmp_path):
        with Journal(str(tmp_path / "j")) as journal:
            journal.append("meta", {"phase": "test"})
            journal.append("event", {"logger": "x", "message": "hi"})
        records = read_journal(str(tmp_path / "j"))
        assert [r.type for r in records] == ["meta", "event"]
        assert records[0].seq == 1
        assert records[1].data["message"] == "hi"

    def test_segment_header_is_sniffable(self, tmp_path):
        with Journal(str(tmp_path / "j")) as journal:
            journal.append("meta", {"phase": "test"})
        [path] = journal_segments(str(tmp_path / "j"))
        assert obs.sniff_artifact(path) == "journal"
        (tmp_path / "notes.txt").write_text("just text")
        assert obs.sniff_artifact(str(tmp_path / "notes.txt")) is None
        header, records, corrupt = read_segment(path)
        assert header["kind"] == JOURNAL_KIND
        assert header["segment"] == 1
        assert corrupt == 0 and len(records) == 1

    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        with Journal(str(tmp_path / "j")) as journal:
            for index in range(5):
                journal.append("meta", {"index": index})
        [path] = journal_segments(str(tmp_path / "j"))
        # Tear the last line mid-record, the way SIGKILL does.
        text = open(path).read()
        open(path, "w").write(text[: len(text) - 17])
        scan = scan_journal(str(tmp_path / "j"))
        assert scan.corrupt == 1
        assert [r.data["index"] for r in scan.records] == [0, 1, 2, 3]

    def test_bit_flip_fails_the_crc(self, tmp_path):
        with Journal(str(tmp_path / "j")) as journal:
            journal.append("meta", {"value": 100})
            journal.append("meta", {"value": 200})
        [path] = journal_segments(str(tmp_path / "j"))
        text = open(path).read()
        open(path, "w").write(text.replace('"value":100', '"value":101'))
        scan = scan_journal(str(tmp_path / "j"))
        assert scan.corrupt == 1
        assert [r.data["value"] for r in scan.records] == [200]

    def test_segment_name_round_trip(self):
        assert segment_name(7) == "journal-000007.jsonl"
        assert segment_number("journal-000007.jsonl") == 7
        assert segment_number("/a/b/journal-000042.jsonl") == 42
        assert segment_number("notes.jsonl") is None
        assert segment_number("journal-xyz.jsonl") is None


class TestJournalWriter:
    def test_reopen_starts_a_new_segment_and_continues_seq(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            last = [journal.append("meta", {"run": 1}) for _ in range(3)][-1]
        with Journal(directory) as journal:
            assert journal.append("meta", {"run": 2}) == last + 1
        # Two opens, two segments; seq is total across both.
        segments = journal_segments(directory)
        assert len(segments) == 2
        assert [r.seq for r in read_journal(directory)] == [1, 2, 3, 4]

    def test_rotation_and_retention(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "SEGMENT_BYTES", 256)
        monkeypatch.setattr(journal_module, "RETAIN_SEGMENTS", 3)
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(50):
                journal.append("meta", {"index": index, "pad": "x" * 64})
            assert len(journal_segments(directory)) <= 3
        # The newest records survived pruning, in order.
        indexes = [r.data["index"] for r in read_journal(directory)]
        assert indexes == sorted(indexes)
        assert indexes[-1] == 49

    def test_fsync_interval_batch_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "FSYNC_INTERVAL_S", 3600.0)
        monkeypatch.setattr(journal_module, "FSYNC_BATCH", 4)
        journal = Journal(str(tmp_path / "j"))
        try:
            for _ in range(3):
                journal.append("meta", {})
            assert journal.lag() == 3
            journal.append("meta", {})  # hits fsync_batch
            assert journal.lag() == 0
        finally:
            journal.close()

    def test_an_idle_journal_syncs(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        try:
            for _ in range(3):
                journal.append("meta", {})
            time.sleep(4 * journal_module.FSYNC_INTERVAL_S)
            assert journal.lag() == 0
        finally:
            journal.close()

    def test_close_cancels_the_idle_sync(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "FSYNC_INTERVAL_S", 3600.0)
        journal = Journal(str(tmp_path / "j"))
        journal.append("meta", {})
        timer = journal._sync_timer
        assert timer is not None and timer.is_alive()
        journal.close()
        timer.join(5)
        assert not timer.is_alive()

    def test_health_document(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "FSYNC_INTERVAL_S", 3600.0)
        with Journal(str(tmp_path / "j")) as journal:
            journal.append("meta", {})
            health = journal.health()
        assert health["segment"] == "journal-000001.jsonl"
        assert health["segments"] == 1
        assert health["records"] == 1
        assert health["lag"] == 1

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ValueError):
            journal.append("meta", {})

    def test_scan_rejects_a_non_journal_path(self, tmp_path):
        with pytest.raises(ValueError):
            scan_journal(str(tmp_path / "nope"))
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            scan_journal(str(tmp_path / "empty"))

    def test_scan_rejects_a_headerless_file(self, tmp_path):
        """A single file is a segment only with the segment header; a
        directory still reads every segment it names."""
        with Journal(str(tmp_path / "j")) as journal:
            journal.append("meta", {})
        [path] = journal_segments(str(tmp_path / "j"))
        records = open(path).read().splitlines(True)[1:]
        (tmp_path / "records.jsonl").write_text("".join(records))
        with pytest.raises(ValueError, match=JOURNAL_KIND):
            scan_journal(str(tmp_path / "records.jsonl"))

    def test_tail_records(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            for index in range(10):
                journal.append("meta", {"index": index})
        tail = list(tail_records(directory, limit=3))
        assert [r.data["index"] for r in tail] == [7, 8, 9]
        fresh = list(tail_records(directory, after_seq=tail[-1].seq))
        assert fresh == []
        assert [r.seq for r in tail_records(directory, after_seq=8)] == [9, 10]


class TestRecorderBounding:
    """Satellite: per-request event buffers are bounded — the oldest
    events drop and the drops are counted, so a chatty corpus cannot
    grow a resident daemon's heap without bound."""

    def test_max_events_drops_oldest_and_counts(self):
        with obs.recording(log_level=obs.DEBUG, max_events=5) as recorder:
            for index in range(12):
                obs.info("test", "event %d" % index, index=index)
        assert len(recorder.events) == 5
        assert [e.fields["index"] for e in recorder.events] == [7, 8, 9, 10, 11]
        assert recorder.counters["obs.events.dropped"] == 7

    def test_unbounded_by_default(self):
        with obs.recording(log_level=obs.DEBUG) as recorder:
            for index in range(300):
                obs.info("test", "event", index=index)
        assert len(recorder.events) == 300
        assert "obs.events.dropped" not in recorder.counters


class TestReplay:
    def _write_serve_like_journal(self, directory):
        """A journal shaped exactly like the dispatcher's: r0001 runs
        to completion (request/job/snapshot records), r0002 dies in
        flight — its last phase is ``started``."""
        with obs.recording(log_level=obs.DEBUG) as recorder:
            with obs.span("serve.request"):
                obs.info("serve.progress", "run started", jobs=1)
                obs.add("corpus.jobs", 1)
        snapshot = obs.Snapshot.from_recorder(recorder)
        job = {"job_id": "select.tdx x recipes.schema", "verdict": "safe"}
        with Journal(directory) as journal:
            journal.append("meta", {"phase": "serve-started"})
            journal.append("request", {
                "request_id": "r0001", "phase": "admitted",
                "row": {"request_id": "r0001", "state": "queued",
                        "target": "corpus", "shards": 1},
                "payload": {"op": "submit", "corpus_dir": "corpus"},
            })
            journal.append("request", {
                "request_id": "r0001", "phase": "started",
                "row": {"request_id": "r0001", "state": "running"},
            })
            journal.append("job", {
                "request_id": "r0001", "job": job, "verdict": "safe",
            })
            journal.append_snapshot(snapshot, request_id="r0001")
            journal.append("request", {
                "request_id": "r0001", "phase": "finished",
                "row": {"request_id": "r0001", "state": "done",
                        "elapsed": 0.25},
                "summary": {"jobs": 1, "verdicts": {"safe": 1}},
            })
            journal.append("request", {
                "request_id": "r0002", "phase": "admitted",
                "row": {"request_id": "r0002", "state": "queued"},
                "payload": {"op": "submit", "corpus_dir": "slow"},
            })
            journal.append("request", {
                "request_id": "r0002", "phase": "started",
                "row": {"request_id": "r0002", "state": "running"},
            })
        return job

    def test_interrupted_detection(self, tmp_path):
        directory = str(tmp_path / "j")
        self._write_serve_like_journal(directory)
        replay = replay_journal(directory)
        assert replay.requests["r0001"]["state"] == "done"
        assert replay.requests["r0002"]["state"] == "interrupted"
        assert replay.interrupted() == ["r0002"]
        assert "interrupted" not in TERMINAL_PHASES[:3]

    def test_jobs_and_summary_attach_to_requests(self, tmp_path):
        directory = str(tmp_path / "j")
        job = self._write_serve_like_journal(directory)
        replay = replay_journal(directory)
        assert replay.jobs == [job]
        assert replay.jobs_by_request == {"r0001": [job]}
        assert replay.requests["r0001"]["summary"]["verdicts"] == {"safe": 1}
        doc = replay.corpus_doc()
        assert doc["jobs"] == [job]

    def test_replay_artifacts_pass_the_validators(self, tmp_path):
        directory = str(tmp_path / "j")
        self._write_serve_like_journal(directory)
        replay = replay_journal(directory)
        snapshot = replay.snapshot
        recorder = obs.Recorder(log_level=obs.DEBUG)
        snapshot.merge_into(recorder)
        trace = obs.to_chrome_trace(recorder)
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "serve.request" in names
        families = validate_openmetrics(obs.render_openmetrics(
            snapshot.counters, snapshot.gauges, snapshot.histograms))
        assert "repro_corpus_jobs" in families
        html = render_report_html(
            snapshot, log_events=snapshot.events,
            corpus=replay.corpus_doc(), title="postmortem x")
        assert "postmortem x" in html
        assert "1 jobs" in html

    def test_replay_survives_a_torn_tail(self, tmp_path):
        directory = str(tmp_path / "j")
        self._write_serve_like_journal(directory)
        [path] = journal_segments(directory)
        text = open(path).read()
        open(path, "w").write(text[: len(text) - 9])
        replay = replay_journal(directory)
        assert replay.corrupt == 1
        # The torn record was r0002's "started"; its "admitted" still
        # reads as in-flight, so interruption detection is unchanged.
        assert replay.requests["r0002"]["state"] == "interrupted"

    def test_empty_journal_has_no_corpus_doc(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory) as journal:
            journal.append("meta", {"phase": "nothing-happened"})
        replay = replay_journal(directory)
        assert replay.corpus_doc() is None
        assert replay.requests == {}


class TestJournalCli:
    @pytest.fixture
    def batch_journal(self, corpus, tmp_path):
        """One ``batch --journal`` run; yields the journal directory."""
        directory = tmp_path / "journal"
        out = tmp_path / "report.jsonl"
        status = main([
            "batch", str(corpus), "--no-cache",
            "--format", "json", "--output", str(out),
            "--journal", str(directory),
        ])
        assert status == 1  # copying.tdx -> unsafe
        return directory

    def test_batch_journal_contents(self, batch_journal, capsys):
        capsys.readouterr()
        replay = replay_journal(str(batch_journal))
        assert replay.corrupt == 0
        assert {run["phase"] for run in replay.runs} == {"begin", "finish"}
        verdicts = {job["job_id"]: job["verdict"] for job in replay.jobs}
        assert verdicts == {
            "select.tdx x recipes.schema": "safe",
            "copying.tdx x recipes.schema": "unsafe",
        }
        finish = [r for r in replay.runs if r["phase"] == "finish"][0]
        assert finish["summary"]["jobs"] == 2
        # The run-level snapshot landed too (merged spans + counters).
        assert replay.snapshot.counters

    def test_journal_ls_and_show(self, batch_journal, capsys):
        capsys.readouterr()
        assert main(["journal", "ls", str(batch_journal)]) == 0
        out = capsys.readouterr().out
        assert "journal-000001.jsonl" in out
        assert main(["journal", "tail", str(batch_journal), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["seq"] for line in lines)

    def test_journal_replay_writes_validated_artifacts(
        self, batch_journal, tmp_path, capsys
    ):
        capsys.readouterr()
        trace = tmp_path / "replay-trace.json"
        metrics = tmp_path / "replay-metrics.txt"
        html = tmp_path / "replay.html"
        status = main([
            "journal", "replay", str(batch_journal),
            "--trace", str(trace), "--metrics", str(metrics),
            "--html", str(html), "--title", "postmortem",
        ])
        assert status == 0
        assert "replayed" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        validate_openmetrics(metrics.read_text())
        assert "postmortem" in html.read_text()

    def test_report_accepts_a_journal(self, batch_journal, tmp_path, capsys):
        out = tmp_path / "rep.html"
        status = main([
            "report", "--journal", str(batch_journal),
            "--output", str(out), "--title", "from the grave",
        ])
        capsys.readouterr()
        assert status == 0
        text = out.read_text()
        assert "from the grave" in text
        assert "unsafe" in text

    def test_report_journal_excludes_live_inputs(
        self, batch_journal, tmp_path, capsys
    ):
        status = main([
            "report", "--journal", str(batch_journal),
            "--trace", str(tmp_path / "t.json"),
            "--output", str(tmp_path / "rep.html"),
        ])
        assert status == 2
        assert "--journal replaces" in capsys.readouterr().err

    def test_trace_diff_accepts_journals(self, batch_journal, capsys):
        capsys.readouterr()
        status = main([
            "trace-diff", str(batch_journal), str(batch_journal),
        ])
        assert status == 0
        assert "structurally identical" in capsys.readouterr().out

    def test_journal_errors_are_cli_errors(self, tmp_path, capsys):
        assert main(["journal", "ls", str(tmp_path / "missing")]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert main(["journal", "replay", str(tmp_path / "missing")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestCrashRecord:
    def test_uncaught_exception_leaves_one_crash_record(self, tmp_path):
        """A process that dies of an uncaught exception with a journal
        open (as ``batch --journal`` holds one) leaves a ``crash``
        record with the traceback and every thread's stack, next to
        the fatal-signal sidecar, and no separate postmortem file."""
        directory = tmp_path / "j"
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys\n"
            "from repro.obs.journal import Journal\n"
            "journal = Journal(sys.argv[1])\n"
            "journal.append('run', {'phase': 'begin'})\n"
            "raise RuntimeError('boom')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(directory)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert "RuntimeError: boom" in done.stderr  # the chained hook ran
        crashes = [r for r in read_journal(str(directory)) if r.type == "crash"]
        assert len(crashes) == 1
        crash = crashes[0].data
        assert crash["type"] == "RuntimeError" and crash["message"] == "boom"
        assert "boom" in crash["traceback"]
        assert "Current thread 0x" in crash["stacks"] or "Thread 0x" in crash["stacks"]
        names = os.listdir(directory)
        assert "crash-stacks-%d.txt" % crash["pid"] in names
        assert not [n for n in names if n.startswith("crash-") and n.endswith(".json")]

    def test_close_restores_the_hooks(self, tmp_path):
        hook, enabled = sys.excepthook, faulthandler.is_enabled()
        journal = Journal(str(tmp_path / "j"))
        assert sys.excepthook is not hook and faulthandler.is_enabled()
        journal.close()
        assert sys.excepthook is hook
        assert faulthandler.is_enabled() == enabled


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One of every file the program writes: a ``check`` run's trace,
    log, metrics and job object, and a ``batch --journal`` run's
    corpus report, status file and journal (plus one segment of it
    and its merged Snapshot document)."""
    root = tmp_path_factory.mktemp("artifacts")
    corpus = root / "corpus"
    corpus.mkdir()
    (corpus / "recipes.schema").write_text(RECIPES_SCHEMA)
    (corpus / "select.tdx").write_text(SELECT_TDX)
    (corpus / "copying.tdx").write_text(COPYING_TDX)
    (corpus / "manifest.txt").write_text(MANIFEST)
    paths = {name: str(root / filename) for name, filename in (
        ("trace", "trace.json"), ("log", "run.jsonl"),
        ("metrics", "check.prom"), ("job", "job.json"),
        ("report", "corpus.jsonl"), ("status", "status.json"),
        ("journal", "journal"), ("snapshot", "snapshot.json"),
    )}
    assert main([
        "check", str(corpus / "copying.tdx"), str(corpus / "recipes.schema"),
        "--trace", paths["trace"], "--log", paths["log"],
        "--metrics", paths["metrics"],
    ]) == 1
    paths["empty_log"] = str(root / "empty.jsonl")
    assert main([
        "check", str(corpus / "select.tdx"), str(corpus / "recipes.schema"),
        "--log", paths["empty_log"], "--log-level", "error",
    ]) == 0
    with open(paths["job"], "w") as handle, contextlib.redirect_stdout(handle):
        assert main(["check", str(corpus / "select.tdx"),
                     str(corpus / "recipes.schema"), "--format", "json"]) == 0
    assert main([
        "batch", str(corpus), "--no-cache", "--no-progress",
        "--format", "json", "--output", paths["report"],
        "--status-file", paths["status"], "--journal", paths["journal"],
    ]) == 1
    with open(paths["snapshot"], "w") as handle:
        json.dump(replay_journal(paths["journal"]).snapshot.to_dict(), handle)
    paths["segment"] = journal_segments(paths["journal"])[0]
    paths["corpus"] = str(corpus)
    return paths


RUNS = ("trace", "snapshot", "journal", "segment")


class TestArtifactReader:
    @pytest.mark.parametrize("name, kind", [
        ("trace", "chrome-trace"), ("snapshot", "snapshot"),
        ("journal", "journal"), ("segment", "journal"), ("log", "log"),
        ("report", "corpus"), ("status", "status"),
        ("job", "job"), ("metrics", "openmetrics"), ("corpus", None),
        ("empty_log", "log"),
    ])
    def test_sniffer_names_every_artifact(self, artifacts, name, kind):
        assert obs.sniff_artifact(artifacts[name]) == kind

    @pytest.mark.parametrize("argv, path, found", [
        (["report", "--log", "@journal"], "journal", "this is a journal"),
        (["report", "--trace", "@status"], "status",
         "this is a batch/serve status file"),
        (["report", "--trace", "@job"], "job",
         "this is a check --format json job object"),
        (["report", "--trace", "@trace", "--baseline-trace",
          "@status"], "status", "this is a batch/serve status file"),
        (["trace-diff", "@status", "@trace"], "status",
         "this is a batch/serve status file"),
        (["trace-diff", "@trace", "@job"], "job",
         "this is a check --format json job object"),
        (["report", "--trace", "@log"], "log",
         "this is a --log JSONL file"),
        (["report", "--trace", "@metrics"], "metrics",
         "this is an OpenMetrics exposition"),
        (["report", "--corpus", "@trace"], "trace",
         "this is a Chrome trace"),
        (["journal", "replay", "@trace"], "trace",
         "this is a Chrome trace"),
        (["journal", "ls", "@trace"], "trace",
         "this is a Chrome trace"),
        (["trace-diff", "@corpus", "@trace"], "corpus",
         "a directory without journal segments"),
        (["explain", "@trace", "@trace"], "trace",
         "this is a Chrome trace"),
    ])
    def test_wrong_artifact_exits_2_by_name(
        self, artifacts, tmp_path, capsys, argv, path, found
    ):
        argv = [artifacts[arg[1:]] if arg.startswith("@") else arg
                for arg in argv]
        if argv[0] == "report":
            argv += ["--output", str(tmp_path / "r.html")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: %s: %s" % (artifacts[path], found) in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.html").exists()

    @pytest.mark.parametrize("a", RUNS)
    @pytest.mark.parametrize("b", RUNS)
    def test_trace_diff_takes_every_run_format(self, artifacts, capsys, a, b):
        assert main(["trace-diff", artifacts[a], artifacts[b]]) == 0
        assert "diverging" in capsys.readouterr().out

    @pytest.mark.parametrize("name", RUNS)
    def test_report_trace_takes_every_run_format(
        self, artifacts, tmp_path, capsys, name
    ):
        out = tmp_path / "r.html"
        assert main(["report", "--trace", artifacts[name],
                     "--output", str(out)]) == 0
        html = out.read_text()
        assert "Work attribution" in html and "rule=" in html

    def test_report_takes_a_log_without_events(self, artifacts, tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", "--log", artifacts["empty_log"],
                     "--output", str(out)]) == 0
        assert "The log file contains no events." in out.read_text()

    def test_journal_forms_read_the_same_run(self, artifacts):
        whole = obs.read_run(artifacts["journal"]).to_dict()
        assert obs.read_run(artifacts["segment"]).to_dict() == whole
        assert obs.read_run(artifacts["snapshot"]).to_dict() == whole

    def test_batch_leaves_the_process_hooks_alone(self, corpus, tmp_path, capsys):
        hook, enabled = sys.excepthook, faulthandler.is_enabled()
        assert main([
            "batch", str(corpus), "--no-cache", "--no-progress",
            "--format", "json", "--journal", str(tmp_path / "journal"),
        ]) == 1
        assert sys.excepthook is hook
        assert faulthandler.is_enabled() == enabled
