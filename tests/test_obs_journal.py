"""Tests for the crash-safe obs journal and the flight recorder.

The journal's contract is exercised at every layer: CRC framing and
torn-tail tolerance on the byte level, rotation/retention/fsync on the
writer, replay back into live-process shapes (request table, merged
Snapshot, Chrome trace, OpenMetrics), and the ``python -m repro
journal`` / ``batch --journal`` / ``report --journal`` CLI surfaces.
The serve-daemon crash-recovery path (SIGKILL + restart) lives in
``test_serve_recovery.py`` — this module stays subprocess-free.
"""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.obs import flight
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
from repro.obs.metrics import sniff_jsonl_kind, validate_openmetrics

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
        text = open(path).read()
        assert sniff_jsonl_kind(text) == JOURNAL_KIND
        assert sniff_jsonl_kind("just text") is None
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

    def test_rotation_and_retention(self, tmp_path):
        directory = str(tmp_path / "j")
        with Journal(directory, segment_bytes=256, retain_segments=3) as journal:
            for index in range(50):
                journal.append("meta", {"index": index, "pad": "x" * 64})
            assert len(journal_segments(directory)) <= 3
        # The newest records survived pruning, in order.
        indexes = [r.data["index"] for r in read_journal(directory)]
        assert indexes == sorted(indexes)
        assert indexes[-1] == 49

    def test_fsync_always_never_lags(self, tmp_path):
        with Journal(str(tmp_path / "j"), fsync="always") as journal:
            journal.append("meta", {})
            assert journal.lag() == 0

    def test_fsync_never_lags_until_forced(self, tmp_path):
        with Journal(str(tmp_path / "j"), fsync="never") as journal:
            for _ in range(5):
                journal.append("meta", {})
            assert journal.lag() == 5
            journal.sync()
            assert journal.lag() == 0

    def test_fsync_interval_batch_threshold(self, tmp_path):
        journal = Journal(
            str(tmp_path / "j"),
            fsync="interval", fsync_interval=3600.0, fsync_batch=4,
        )
        try:
            for _ in range(3):
                journal.append("meta", {})
            assert journal.lag() == 3
            journal.append("meta", {})  # hits fsync_batch
            assert journal.lag() == 0
        finally:
            journal.close()

    def test_health_document(self, tmp_path):
        with Journal(str(tmp_path / "j"), fsync="never") as journal:
            journal.append("meta", {})
            health = journal.health()
        assert health["segment"] == "journal-000001.jsonl"
        assert health["segments"] == 1
        assert health["records"] == 1
        assert health["lag"] == 1
        assert health["fsync"] == "never"

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal(str(tmp_path / "j"))
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ValueError):
            journal.append("meta", {})

    def test_constructor_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "j"), fsync="sometimes")
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "j"), segment_bytes=0)
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "j"), retain_segments=0)

    def test_scan_rejects_a_non_journal_path(self, tmp_path):
        with pytest.raises(ValueError):
            scan_journal(str(tmp_path / "nope"))
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            scan_journal(str(tmp_path / "empty"))

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
        trace = replay.chrome_trace()
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "serve.request" in names
        families = validate_openmetrics(replay.openmetrics())
        assert "repro_corpus_jobs" in families
        html = replay.html_report(title="postmortem x")
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


class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        recorder = flight.FlightRecorder(str(tmp_path), capacity=3)
        for index in range(7):
            recorder.note("tick", index=index)
        assert [e["fields"]["index"] for e in recorder.events()] == [4, 5, 6]

    def test_dump_anatomy(self, tmp_path):
        recorder = flight.FlightRecorder(str(tmp_path), capacity=8)
        recorder.note("serve.admitted", request_id="r0001")
        try:
            raise RuntimeError("boom")
        except RuntimeError as error:
            path = recorder.dump("uncaught exception", error)
        assert os.path.basename(path).startswith("crash-")
        payload = json.load(open(path))
        assert payload["kind"] == flight.CRASH_KIND
        assert payload["reason"] == "uncaught exception"
        assert payload["exception"]["type"] == "RuntimeError"
        assert "boom" in payload["exception"]["traceback"]
        assert payload["events"][-1]["kind"] == "serve.admitted"
        assert "Current thread" in payload["stack"]

    def test_install_is_idempotent_and_note_is_guarded(self, tmp_path):
        flight.uninstall()
        assert flight.installed() is None
        flight.note("ignored", x=1)  # must not raise with nothing installed
        try:
            first = flight.install(str(tmp_path))
            assert flight.install(str(tmp_path)) is first
            flight.note("tick", x=2)
            assert first.events()[-1]["kind"] == "tick"
        finally:
            flight.uninstall()
        assert flight.installed() is None


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
        flight.uninstall()
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
