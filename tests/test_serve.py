"""End-to-end tests for the repro.serve audit service.

A real ``python -m repro serve`` daemon on a unix socket (one per test
module — startup pays the full import bill), exercised through the
:class:`repro.serve.ServeClient` the CLI itself uses.  The two
headline guarantees from the design doc are asserted here:

* resubmitting a corpus is pure cache lookups — 100% hit rate, zero
  new pool workers, and job objects byte-identical (via
  :func:`repro.corpus.job_signature`) to one-shot
  :func:`repro.audit_corpus`;
* the serve-side shard splitter partitions deterministically — shards
  0/2 and 1/2 together produce exactly the unsharded verdict set, and
  the merged :class:`repro.obs.Snapshot` carries the same work
  counters as an unsharded run.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import repro
from repro import audit_corpus, obs
from repro.cli import main
from repro.corpus import (
    discover_jobs,
    filter_shard,
    job_object,
    job_signature,
    validate_job_object,
)
from repro.corpus.manifest import shard_index
from repro.obs.journal import Journal, read_journal
from repro.serve import (
    BusyError,
    Dispatcher,
    ProtocolError,
    ServeClient,
    event,
    is_terminal,
    validate_request,
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

COPYING_TDX = """
initial q0
rule q0 recipes -> recipes(q0)
rule q0 recipe -> recipe(qsel qsel)
rule qsel description -> description(q)
text q
"""

BROKEN_TDX = """
initial q0
rlue q0 recipes -> recipes(q0)
"""

MANIFEST = """
select.tdx recipes.schema
copying.tdx recipes.schema
select.tdx recipes.schema comment
broken.tdx recipes.schema
"""

#: Counter names with timing-valued content legitimately differ
#: between runs; everything else must merge to exactly the unsharded
#: totals.
_TIMING_MARKERS = ("seconds", "_ms", ".ms", "time")


def _make_corpus(root):
    root.mkdir()
    (root / "recipes.schema").write_text(RECIPES_SCHEMA)
    (root / "select.tdx").write_text(SELECT_TDX)
    (root / "copying.tdx").write_text(COPYING_TDX)
    (root / "broken.tdx").write_text(BROKEN_TDX)
    (root / "manifest.txt").write_text(MANIFEST)
    return root


@pytest.fixture
def corpus(tmp_path):
    return _make_corpus(tmp_path / "corpus")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live daemon on a unix socket for the whole module."""
    root = tmp_path_factory.mktemp("serve")
    sock = root / "repro.sock"
    metrics = root / "metrics.txt"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(sock),
            "--jobs", "2",
            "--queue-limit", "4",
            "--status-file", str(root / "status.json"),
            "--metrics", str(metrics),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 120
        while not sock.exists():
            if proc.poll() is not None:
                raise RuntimeError(
                    "serve exited %r during startup:\n%s"
                    % (proc.returncode, proc.stderr.read())
                )
            if time.time() > deadline:
                raise TimeoutError("serve did not open its socket")
            time.sleep(0.1)
        yield SimpleNamespace(
            socket=str(sock), proc=proc, root=root, metrics=metrics
        )
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _submit(server, payload):
    client = ServeClient(socket_path=server.socket, timeout=300.0)
    events = list(client.submit(payload))
    assert events, "submit produced no events"
    assert is_terminal(events[-1])
    return client, events


class TestEndToEnd:
    def test_ping(self, server):
        client = ServeClient(socket_path=server.socket)
        pong = client.ping()
        assert pong["message"] == "pong"
        assert pong["fields"]["protocol"] == 1

    def test_double_submission_is_pure_cache(self, server, corpus):
        # One-shot reference, uncached so the daemon starts cold too.
        reference = audit_corpus(str(corpus), use_cache=False)
        ref_sigs = sorted(
            job_signature(job_object(result)) for result in reference.results
        )

        _, first = _submit(server, {"corpus_dir": str(corpus)})
        terminal = first[-1]
        assert terminal["message"] == "request finished"
        assert "0 hits" in terminal["fields"]["cache_footer"]

        # Streamed job objects are schema-valid and byte-identical
        # (modulo the volatile keys) to the one-shot run.
        jobs = [ev["fields"]["job"] for ev in first if ev["logger"] == "serve.job"]
        assert len(jobs) == len(reference.results) == 4
        assert all(validate_job_object(job) == [] for job in jobs)
        assert sorted(job_signature(job) for job in jobs) == ref_sigs

        client = ServeClient(socket_path=server.socket)
        spawned_before = client.status()["pool"]["spawned_total"]

        _, second = _submit(server, {"corpus_dir": str(corpus)})
        terminal = second[-1]
        assert terminal["message"] == "request finished"
        assert "100.0% hit rate" in terminal["fields"]["cache_footer"]
        # Pure lookups: no job executed, no worker spawned.
        assert [ev for ev in second if ev["logger"] == "serve.job"] == []
        assert terminal["fields"]["pool"]["spawned_total"] == spawned_before

        # The cached verdicts are byte-identical too (via the trace's
        # corpus document, which carries every job object).
        trace = client.trace(terminal["fields"]["request_id"])
        cached_jobs = trace["corpus"]["jobs"]
        assert all(validate_job_object(job) == [] for job in cached_jobs)
        assert sorted(job_signature(job) for job in cached_jobs) == ref_sigs

    def test_sharded_submission_matches_unsharded(self, server, corpus):
        with obs.recording() as recorder:
            reference = audit_corpus(str(corpus), use_cache=False)
        ref_verdicts = {r.job_id: r.verdict for r in reference.results}
        ref_counters = {
            name: value
            for name, value in recorder.counters.items()
            if not any(marker in name for marker in _TIMING_MARKERS)
        }

        client, events = _submit(
            server,
            {"corpus_dir": str(corpus), "shards": 2, "no_cache": True},
        )
        terminal = events[-1]
        assert terminal["message"] == "request finished"

        # Both shard groups ran, and every job landed in exactly one.
        shard_done = [
            ev for ev in events
            if ev["logger"] == "serve.progress"
            and ev["message"] == "shard finished"
        ]
        assert sorted(ev["fields"]["shard"] for ev in shard_done) == [0, 1]
        assert sum(ev["fields"]["jobs"] for ev in shard_done) == 4

        jobs = [ev["fields"] for ev in events if ev["logger"] == "serve.job"]
        assert {job["job"]["job_id"]: job["job"]["verdict"] for job in jobs} == ref_verdicts
        assert all(job["shard"] in (0, 1) for job in jobs)

        # The merged Snapshot carries exactly the unsharded work
        # counters: counters add across shards, so the partition must
        # be a partition.
        snapshot = client.trace(terminal["fields"]["request_id"])["snapshot"]
        for name, value in ref_counters.items():
            assert snapshot["counters"].get(name) == pytest.approx(value), name

    def test_cancel_unknown_request(self, server):
        client = ServeClient(socket_path=server.socket)
        assert client.cancel("r9999") is False

    def test_trace_unknown_request(self, server):
        client = ServeClient(socket_path=server.socket)
        with pytest.raises(ProtocolError):
            client.trace("r9999")

    def test_graceful_shutdown_flushes_metrics(self, server):
        """Last in the module: SIGINT drains, flushes OpenMetrics,
        exits 0, and unlinks the socket."""
        server.proc.send_signal(signal.SIGINT)
        assert server.proc.wait(timeout=60) == 0
        assert not os.path.exists(server.socket)
        text = server.metrics.read_text()
        assert "repro_serve_requests_accepted_total" in text
        assert "repro_corpus_cache_hits_total" in text


class TestShardDeterminism:
    def test_partition_is_total_and_disjoint(self, corpus):
        jobs = discover_jobs(str(corpus))
        zero = filter_shard(jobs, 0, 2)
        one = filter_shard(jobs, 1, 2)
        ids = {job.job_id for job in jobs}
        assert {j.job_id for j in zero} | {j.job_id for j in one} == ids
        assert {j.job_id for j in zero} & {j.job_id for j in one} == set()
        for job in jobs:
            assert shard_index(job.job_id, 2) in (0, 1)

    def test_batch_shard_union_equals_unsharded(self, corpus, tmp_path, capsys):
        outputs = []
        for index in (0, 1):
            out = tmp_path / ("shard%d.jsonl" % index)
            status = main([
                "batch", str(corpus), "--shard", "%d/2" % index,
                "--no-cache", "--format", "json", "--output", str(out),
            ])
            assert status in (0, 1)
            outputs.append(out)
            capsys.readouterr()
        sharded = {}
        for out in outputs:
            for line in out.read_text().splitlines():
                payload = json.loads(line)
                if "job_id" in payload and "verdict" in payload:
                    assert payload["job_id"] not in sharded
                    sharded[payload["job_id"]] = payload["verdict"]
        reference = audit_corpus(str(corpus), use_cache=False)
        assert sharded == {r.job_id: r.verdict for r in reference.results}

    def test_audit_corpus_shard_argument(self, corpus):
        zero = audit_corpus(str(corpus), shard="0/2", use_cache=False)
        one = audit_corpus(str(corpus), shard="1/2", use_cache=False)
        assert len(zero.results) + len(one.results) == 4


class TestBackpressure:
    def test_admit_past_the_high_water_mark(self, tmp_path):
        dispatcher = Dispatcher(
            jobs=1, queue_limit=0, status_file=str(tmp_path / "status.json")
        )
        try:
            with pytest.raises(BusyError):
                dispatcher.admit({"corpus_dir": str(tmp_path)})
            assert dispatcher.busy_rejections == 1
            assert "repro_serve_busy_rejections_total 1" in dispatcher.render_metrics()
        finally:
            dispatcher.shutdown()


class TestLifetimeRecorder:
    def test_requests_fold_registries_without_spans(self, corpus):
        """The server-lifetime recorder keeps no request's spans or
        events, and its metrics are those of folding every request's
        full snapshot."""
        dispatcher = Dispatcher(jobs=1)
        loop = asyncio.new_event_loop()

        async def drain(request):
            async for _event in dispatcher.stream(request):
                pass

        requests = []
        try:
            for _ in range(3):
                request = dispatcher.admit({"corpus_dir": str(corpus), "no_cache": True})
                loop.run_until_complete(drain(request))
                requests.append(request)
        finally:
            loop.close()
            dispatcher.shutdown()
        snapshots = [obs.Snapshot.from_dict(request.snapshot) for request in requests]
        assert all(snapshot.spans and snapshot.events for snapshot in snapshots)
        lifetime = dispatcher._recorder
        assert lifetime.spans == [] and lifetime.events == []
        # The same registries with the full snapshots folded in, plus
        # what the dispatcher records itself (no snapshot has a serve.*
        # name).
        full = obs.Recorder(log_level=None)
        for snapshot in snapshots:
            snapshot.merge_into(full)
        assert full.spans
        for name, value in lifetime.counters.items():
            if name.startswith("serve."):
                full.add(name, value)
        full.histograms["serve.request.ms"] = lifetime.histograms["serve.request.ms"]
        assert dispatcher.render_metrics() == obs.render_openmetrics(
            full.counters, full.gauges, full.histograms
        )


class TestCancelledBeforeStart:
    def test_every_withdrawn_job_streams_and_counts(self):
        """Jobs withdrawn before any was submitted still settle through
        the request's record sink: one ``serve.job`` line each, and a
        row that counts them."""
        corpus = os.path.join(
            os.path.dirname(__file__), "..", "examples", "files", "corpus"
        )
        dispatcher = Dispatcher(jobs=1)
        loop = asyncio.new_event_loop()

        async def drain(request):
            return [line async for line in dispatcher.stream(request)]

        try:
            request = dispatcher.admit({"corpus_dir": corpus, "no_cache": True})
            request.cancel_event.set()
            events = loop.run_until_complete(drain(request))
        finally:
            loop.close()
            dispatcher.shutdown()
        jobs = [line for line in events if line["logger"] == "serve.job"]
        assert len(jobs) == 6
        assert [line["fields"]["done"] for line in jobs] == [1, 2, 3, 4, 5, 6]
        assert request.state == "cancelled"
        assert request.row()["done"] == 6
        assert request.row()["verdicts"] == {"cancelled": 6}


class TestProtocol:
    def test_terminal_vocabulary(self):
        assert is_terminal(event("serve.request", "request finished"))
        assert is_terminal(event("serve.request", "request failed"))
        assert is_terminal(event("serve.request", "request cancelled"))
        assert is_terminal(event("serve.admission", "busy"))
        assert not is_terminal(event("serve.job", "job finished"))
        assert not is_terminal(event("serve.progress", "request finished"))

    def test_validate_request_rejections(self):
        with pytest.raises(ProtocolError):
            validate_request([])
        with pytest.raises(ProtocolError):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "cancel"})  # missing request_id
        with pytest.raises(ProtocolError):
            validate_request({"op": "submit"})  # no target at all
        with pytest.raises(ProtocolError):
            validate_request({
                "op": "submit", "corpus_dir": "x",
                "transducer": "t", "schema": "s",
            })  # both targets
        with pytest.raises(ProtocolError):
            validate_request({"op": "submit", "corpus_dir": "x", "shards": 0})

    def test_validate_request_accepts_the_good_shapes(self):
        validate_request({"op": "ping"})
        validate_request({"op": "submit", "corpus_dir": "x", "shards": 2})
        validate_request({"op": "submit", "transducer": "t", "schema": "s"})


class TestJobObjectSchema:
    """One job-result schema across every emitting surface."""

    def test_check_format_json(self, corpus, capsys):
        status = main([
            "check",
            str(corpus / "copying.tdx"), str(corpus / "recipes.schema"),
            "--format", "json",
        ])
        assert status == 1  # copying -> unsafe
        payload = json.loads(capsys.readouterr().out)
        assert validate_job_object(payload) == []
        assert payload["verdict"] == "unsafe"

    def test_batch_jsonl(self, corpus, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        status = main([
            "batch", str(corpus), "--no-cache",
            "--format", "json", "--output", str(out),
        ])
        assert status == 1
        capsys.readouterr()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        jobs = [p for p in lines if "job_id" in p and "verdict" in p]
        assert len(jobs) == 4
        assert all(validate_job_object(job) == [] for job in jobs)

    def test_round_trip_and_volatile_keys(self, corpus):
        reference = audit_corpus(str(corpus), use_cache=False)
        for result in reference.results:
            payload = job_object(result)
            assert validate_job_object(payload) == []
            # JSON round trip is lossless for the schema check.
            rebuilt = json.loads(json.dumps(payload))
            assert validate_job_object(rebuilt) == []
            assert job_signature(rebuilt) == job_signature(payload)
            # The volatile keys never enter the signature.
            rebuilt["wall_time_s"] = 123.0
            rebuilt["cache_hit"] = not rebuilt["cache_hit"]
            rebuilt["observations"] = {}
            assert job_signature(rebuilt) == job_signature(payload)

    def test_validator_flags_drift(self):
        assert validate_job_object([]) == ["not a JSON object"]
        problems = validate_job_object({"version": 1, "verdict": "safe"})
        assert any("missing keys" in p for p in problems)
        good = {"version": 2, "verdict": "excellent"}
        problems = validate_job_object(good)
        assert any("version" in p for p in problems)
        assert any("verdict" in p for p in problems)


class TestEveryRequestEnds:
    """``Dispatcher.stream`` ends every request with a terminal event,
    whatever stops the run."""

    @staticmethod
    def stream(tmp_path, payload, journal=None):
        dispatcher = Dispatcher(
            jobs=1, status_file=str(tmp_path / "status.json"), journal=journal
        )
        loop = asyncio.new_event_loop()

        async def drain(request):
            return [line async for line in dispatcher.stream(request)]

        try:
            request = dispatcher.admit(payload)
            events = loop.run_until_complete(asyncio.wait_for(drain(request), 20))
        finally:
            loop.close()
            dispatcher.shutdown()
        return request, events

    def test_an_engine_crash_fails_the_request(self, tmp_path, corpus, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("engine crashed")

        monkeypatch.setattr("repro.serve.dispatcher.run_corpus", crash)
        with Journal(str(tmp_path / "journal")) as journal:
            request, events = self.stream(tmp_path, {"corpus_dir": str(corpus)}, journal)
        assert is_terminal(events[-1])
        assert events[-1]["message"] == "request failed"
        assert events[-1]["fields"]["error"] == "RuntimeError: engine crashed"
        assert request.state == "failed"
        assert request.row()["state"] == "failed"
        [failed] = [record.data for record in read_journal(str(tmp_path / "journal"))
                    if record.data.get("phase") == "failed"]
        assert "in crash" in failed["traceback"]

    def test_a_deeply_nested_transducer_is_one_error_job(self, tmp_path):
        root = tmp_path / "deep"
        root.mkdir()
        (root / "recipes.schema").write_text(RECIPES_SCHEMA)
        (root / "select.tdx").write_text(SELECT_TDX)
        (root / "deep.tdx").write_text(
            "initial q0\nrule q0 recipes -> " + "a(" * 5000 + "q0" + ")" * 5000 + "\n"
        )
        request, events = self.stream(tmp_path, {"corpus_dir": str(root)})
        assert events[-1]["message"] == "request finished"
        jobs = {job["job_id"]: job for job in request.corpus_doc["jobs"]}
        assert jobs["deep.tdx x recipes.schema"]["verdict"] == "error"
        assert "nested too deeply" in jobs["deep.tdx x recipes.schema"]["error"]
        assert jobs["select.tdx x recipes.schema"]["verdict"] == "safe"
