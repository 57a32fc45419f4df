"""Crash recovery: SIGKILL the daemon mid-corpus, restart, audit.

This is the journal's headline scenario, run against real processes
(its own module so the shared ``test_serve`` daemon fixture never sees
a SIGKILL): a daemon with ``--journal-dir`` completes one request,
gets killed -9 while a second is in flight, and a restarted daemon on
the same journal directory must

* restore the request table — the completed request is ``done`` and
  its trace (snapshot + corpus document) re-serves from the journal
  with zero recomputation, the in-flight one surfaces as
  ``interrupted`` in ``status`` and ``repro top``;
* continue the request-id sequence past the recovered rows;
* agree byte-for-byte with the pre-crash NDJSON stream on every
  journaled verdict;

and ``python -m repro journal replay`` must reconstruct a valid
Chrome trace and OpenMetrics exposition from the journal alone.

The in-flight request is held in flight deterministically via the
engine's fault-injection hook (``REPRO_CORPUS_TEST_DELAY``), which
sleeps before analysing any job whose transducer path contains the
configured substring.  The slow corpus's transducer is a *copying*
one on purpose: a provably safe pair would run inline in the parent
past the pool (the dataflow pre-filter) and never reach the hook.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro
from repro.cli import main
from repro.corpus import job_signature
from repro.corpus.runner import FAULT_DELAY_ENV
from repro.obs.journal import replay_journal
from repro.obs.metrics import validate_openmetrics
from repro.serve import ServeClient, is_terminal

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


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Two corpora: ``fast`` completes instantly, ``slow`` holds its
    only job in the delay hook (the transducer file name carries the
    hook's match substring)."""
    root = tmp_path_factory.mktemp("recovery")
    fast = root / "fast"
    fast.mkdir()
    (fast / "recipes.schema").write_text(RECIPES_SCHEMA)
    (fast / "select.tdx").write_text(SELECT_TDX)
    (fast / "copying.tdx").write_text(COPYING_TDX)
    (fast / "manifest.txt").write_text(
        "select.tdx recipes.schema\ncopying.tdx recipes.schema\n"
    )
    slow = root / "slow"
    slow.mkdir()
    (slow / "recipes.schema").write_text(RECIPES_SCHEMA)
    (slow / "slowpoke.tdx").write_text(COPYING_TDX)
    (slow / "manifest.txt").write_text("slowpoke.tdx recipes.schema\n")
    return SimpleNamespace(root=root, fast=fast, slow=slow)


def _start_daemon(root, *, delay=None):
    sock = root / "repro.sock"
    if sock.exists():
        sock.unlink()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if delay:
        env[FAULT_DELAY_ENV] = delay
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(sock),
            "--jobs", "2",
            "--status-file", str(root / "status.json"),
            "--journal-dir", str(root / "journal"),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so teardown can reach the pool workers
        # of a daemon that died without stopping them.
        start_new_session=True,
    )
    deadline = time.time() + 120
    while not sock.exists():
        if proc.poll() is not None:
            raise RuntimeError(
                "serve exited %r during startup:\n%s"
                % (proc.returncode, proc.stderr.read())
            )
        if time.time() > deadline:
            proc.kill()
            raise TimeoutError("serve did not open its socket")
        time.sleep(0.1)
    return SimpleNamespace(
        proc=proc,
        socket=str(sock),
        status_file=str(root / "status.json"),
        journal=str(root / "journal"),
    )


def _kill_group(server):
    """SIGKILL whatever is left of a daemon's process group."""
    try:
        os.killpg(server.proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _submit_and_drop(server, corpus_dir):
    """Submit a corpus and read the stream until the daemon goes away."""
    try:
        client = ServeClient(socket_path=server.socket, timeout=None)
        for _ in client.submit({"corpus_dir": str(corpus_dir), "no_cache": True}):
            pass
    except Exception:
        pass  # the daemon dies under this stream — expected


def _submit(server, payload):
    client = ServeClient(socket_path=server.socket, timeout=300.0)
    events = list(client.submit(payload))
    assert events and is_terminal(events[-1])
    return client, events


def _request_state(status_file, request_id):
    try:
        with open(status_file) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    for row in document.get("requests", []):
        if row.get("request_id") == request_id:
            return row.get("state")
    return None


@pytest.fixture(scope="module")
def crash(corpora):
    """The whole scenario, shared by every assertion below: run,
    kill -9 mid-request, restart, and hand back both epochs' facts."""
    server = _start_daemon(corpora.root, delay="slowpoke:300")
    killed = False
    try:
        # Epoch 1: one request runs to completion...
        _, events = _submit(
            server, {"corpus_dir": str(corpora.fast), "no_cache": True}
        )
        assert events[-1]["message"] == "request finished"
        assert events[-1]["fields"]["request_id"] == "r0001"
        streamed_jobs = [
            ev["fields"]["job"] for ev in events
            if ev["logger"] == "serve.job"
        ]
        assert len(streamed_jobs) == 2

        # ... and a second hangs in the delay hook, confirmed running.
        slow_thread = threading.Thread(
            target=_submit_and_drop, args=(server, corpora.slow), daemon=True
        )
        slow_thread.start()
        deadline = time.time() + 60
        while _request_state(server.status_file, "r0002") != "running":
            assert time.time() < deadline, "r0002 never started running"
            time.sleep(0.1)
        time.sleep(0.5)  # let the started/shard records reach the journal

        server.proc.kill()  # SIGKILL: no drain, no flush, no goodbye
        server.proc.wait(timeout=30)
        killed = True
        slow_thread.join(timeout=30)

        # Epoch 2: a fresh daemon on the same journal directory.
        restarted = _start_daemon(corpora.root)
        try:
            yield SimpleNamespace(
                server=restarted,
                corpora=corpora,
                streamed_jobs=streamed_jobs,
            )
        finally:
            if restarted.proc.poll() is None:
                restarted.proc.send_signal(signal.SIGINT)
                try:
                    restarted.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    restarted.proc.kill()
                    restarted.proc.wait()
    finally:
        if not killed and server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait()
        # SIGKILL gave the daemon no chance to stop its pool workers.
        _kill_group(server)


class TestCrashRecovery:
    def test_request_table_is_restored(self, crash):
        client = ServeClient(socket_path=crash.server.socket)
        status = client.status()
        rows = {row["request_id"]: row for row in status["requests"]}
        assert rows["r0001"]["state"] == "done"
        assert rows["r0001"]["verdicts"] == {"safe": 1, "unsafe": 1}
        assert rows["r0002"]["state"] == "interrupted"
        assert "interrupted" in rows["r0002"]["error"]
        assert status["journal"]["interrupted_recovered"] == 1
        assert status["journal"]["segments"] >= 2

    def test_completed_trace_reserves_from_the_journal(self, crash):
        client = ServeClient(socket_path=crash.server.socket)
        trace = client.trace("r0001")
        assert trace["snapshot"]["counters"]
        recovered = trace["corpus"]["jobs"]
        assert sorted(job_signature(job) for job in recovered) == sorted(
            job_signature(job) for job in crash.streamed_jobs
        )

    def test_journaled_verdicts_match_the_precrash_stream(self, crash):
        replay = replay_journal(crash.server.journal)
        journaled = sorted(
            replay.jobs_by_request["r0001"], key=lambda job: job["job_id"]
        )
        streamed = sorted(crash.streamed_jobs, key=lambda job: job["job_id"])
        assert (
            [json.dumps(job, sort_keys=True) for job in journaled]
            == [json.dumps(job, sort_keys=True) for job in streamed]
        )
        assert replay.interrupted() == ["r0002"]

    def test_request_ids_continue_past_the_recovered_rows(self, crash):
        _, events = _submit(
            crash.server,
            {"corpus_dir": str(crash.corpora.fast), "no_cache": True},
        )
        assert events[-1]["message"] == "request finished"
        assert events[-1]["fields"]["request_id"] == "r0003"

    def test_journal_replay_reconstructs_the_artifacts(self, crash, tmp_path, capsys):
        trace_path = tmp_path / "replay-trace.json"
        metrics_path = tmp_path / "replay-metrics.txt"
        html_path = tmp_path / "replay.html"
        status = main([
            "journal", "replay", crash.server.journal,
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            "--html", str(html_path),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "interrupted 1" in out
        trace = json.loads(trace_path.read_text())
        names = {event.get("name") for event in trace["traceEvents"]}
        assert "serve.request" in names
        families = validate_openmetrics(metrics_path.read_text())
        assert families
        assert "<html" in html_path.read_text()

    def test_top_shows_the_interruption_and_journal_health(self, crash, capsys):
        # The restarted daemon rewrote the status file during recovery.
        assert main(["top", crash.server.status_file, "--once"]) == 0
        frame = capsys.readouterr().out
        assert "interrupted" in frame
        assert "journal:" in frame
        assert "interrupted recovered" in frame


def _children(pid):
    """The pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker pids from /proc")
class TestHardShutdown:
    def test_second_sigint_terminates_busy_workers(self, corpora, tmp_path):
        """SIGINT drains; a second SIGINT terminates the pool workers,
        even one held in a job, and the daemon exits."""
        server = _start_daemon(tmp_path, delay="slowpoke:120")
        try:
            threading.Thread(
                target=_submit_and_drop, args=(server, corpora.slow), daemon=True
            ).start()
            deadline = time.time() + 60
            while (
                _request_state(server.status_file, "r0001") != "running"
                or not _children(server.proc.pid)
            ):
                assert time.time() < deadline, "r0001 never reached a worker"
                time.sleep(0.1)
            workers = _children(server.proc.pid)
            server.proc.send_signal(signal.SIGINT)
            time.sleep(1.0)
            server.proc.send_signal(signal.SIGINT)
            assert server.proc.wait(timeout=30) == 0
            deadline = time.time() + 10
            while any(_running(pid) for pid in workers):
                assert time.time() < deadline, "pool workers outlived the daemon"
                time.sleep(0.1)
        finally:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
            _kill_group(server)


def _wait_gone(workers, seconds):
    """Whether every pid in ``workers`` is gone or a zombie within
    ``seconds``."""
    deadline = time.time() + seconds
    while any(_running(pid) for pid in workers):
        if time.time() > deadline:
            return False
        time.sleep(0.1)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker pids from /proc")
class TestOrphanedWorkers:
    """A pool worker exits when its parent is SIGKILLed — whether it
    is idle or asleep in a job — instead of living on with PPID 1."""

    def test_serve_workers_exit_with_a_killed_daemon(self, corpora, tmp_path):
        server = _start_daemon(tmp_path, delay="slowpoke:60")
        try:
            threading.Thread(
                target=_submit_and_drop, args=(server, corpora.slow), daemon=True
            ).start()
            deadline = time.time() + 60
            while (
                _request_state(server.status_file, "r0001") != "running"
                or not _children(server.proc.pid)
            ):
                assert time.time() < deadline, "r0001 never reached a worker"
                time.sleep(0.1)
            time.sleep(0.5)  # let the job reach the delay hook
            workers = _children(server.proc.pid)
            server.proc.kill()
            server.proc.wait(timeout=30)
            assert _wait_gone(workers, 5.0), "pool workers outlived the daemon"
        finally:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
            _kill_group(server)

    def test_batch_workers_exit_with_a_killed_batch(self, corpora, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env[FAULT_DELAY_ENV] = "slowpoke:60"
        status_file = tmp_path / "status.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "batch", str(corpora.slow),
                "--jobs", "2", "--no-cache", "--no-progress",
                "--status-file", str(status_file),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        batch = SimpleNamespace(proc=proc)
        try:
            deadline = time.time() + 60
            while True:
                assert proc.poll() is None, "batch exited early"
                assert time.time() < deadline, "the job never reached a worker"
                try:
                    in_flight = json.loads(status_file.read_text())["workers"]
                except (OSError, ValueError, KeyError):
                    in_flight = []
                if in_flight and _children(proc.pid):
                    break
                time.sleep(0.1)
            workers = _children(proc.pid)
            proc.kill()
            proc.wait(timeout=30)
            assert _wait_gone(workers, 5.0), "pool workers outlived batch"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            _kill_group(batch)
