"""Request dispatch: admission control, warm-pool execution, capture.

The dispatcher is the synchronous heart of the daemon — the asyncio
transport layer above it only parses lines and moves bytes.  One
dispatcher owns:

* **one warm :class:`repro.corpus.WorkerPool`** shared by every
  request, so a request after the first pays no fork/import cost and
  an all-cache-hits request spawns **zero** new workers (the pool's
  spawn ledger is surfaced in every terminal event for exactly that
  assertion);
* **one admission queue** bounded by ``queue_limit``: a submit past
  the high-water mark (queued + running requests) is refused
  immediately with :class:`BusyError` — the transport renders it as a
  ``busy`` event / HTTP 429 — rather than queueing unboundedly;
  refusal is *load shedding*, the client owns the retry;
* **per-request observability capture**: each request executes under
  its own :func:`repro.obs.recording`, so its counters, spans, and
  events are captured separately and kept as a
  :class:`repro.obs.Snapshot` for ``GET /trace/<request-id>``; the
  registries also fold into a server-lifetime recorder that backs
  ``GET /metrics`` and the shutdown ``--metrics`` flush;
* **the shard splitter**: ``"shards": N`` partitions a corpus with
  :func:`repro.corpus.filter_shard` (deterministic SHA-256 of the job
  id, the same partition ``batch --shard i/N`` computes) and runs the
  N groups *concurrently on the one shared pool* — a shard that runs
  dry simply stops submitting and its workers pick up the remaining
  shards' jobs, which is the work-stealing property: no shard ever
  idles while another has queued jobs.  The N per-shard Snapshots
  merge associatively into one request capture whose work counters
  equal an unsharded run's.

Execution runs in ``asyncio.to_thread`` threads; events cross back
into the event loop through ``loop.call_soon_threadsafe`` onto a per-
request ``asyncio.Queue`` (see :meth:`Dispatcher.stream`).  All
dispatcher state shared with those threads sits behind one lock.

The dispatcher also maintains the ``.repro-status.json`` document for
``python -m repro top``: same ``kind`` header as a batch status file,
plus a ``requests`` table (one row per live/recent request) and the
pool stats.

With ``--journal-dir`` the dispatcher writes every request's
admission → shard → verdict → terminal transition (plus the full
per-request Snapshot) into a :class:`repro.obs.Journal` as it
happens, and on construction replays whatever journal it finds:
completed requests come back with their snapshots and corpus
documents (``trace`` re-serves them with zero recomputation), while
requests that were in flight when the previous process died are
restored in the ``interrupted`` state — visible in ``status``,
``repro top``, and the ``serve.requests.interrupted`` counter.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Dict, List, Optional, Tuple

from .. import obs
from ..obs import flight
from ..obs.journal import Journal, replay_journal
from ..corpus import (
    CorpusError,
    JobSpec,
    ResultCache,
    RunSummary,
    WorkerPool,
    cache_footer,
    discover_jobs,
    filter_shard,
    job_object,
    open_cache,
    run_corpus,
    summary_dict,
)
from ..corpus.cache import ENGINE_VERSION
from ..corpus.runner import ProgressListener, _sort_key
from ..corpus.telemetry import write_status_file
from .protocol import PROTOCOL_VERSION, event, is_terminal

__all__ = ["BusyError", "Request", "Dispatcher"]

#: Finished requests kept for ``status``/``trace`` before aging out.
KEEP_FINISHED = 32

#: Per-request LogEvent buffer cap (oldest dropped past this; see the
#: ``serve.events.dropped`` counter) — a long request on a chatty
#: corpus can no longer grow the daemon's heap without bound.
MAX_REQUEST_EVENTS = 2048


class BusyError(Exception):
    """Admission refused: the queue is past the high-water mark."""


@dataclass
class Request:
    """One submitted audit request and everything the server retains
    about it (the status row, the capture, the cancel switch)."""

    request_id: str
    payload: Dict[str, Any]
    target: str
    shards: int = 1
    # queued | running | done | failed | cancelled | interrupted
    # ("interrupted" only ever appears on rows recovered from a
    # journal: the previous daemon process died with them in flight)
    state: str = "queued"
    created: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None
    jobs_total: int = 0
    jobs_done: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    error: Optional[str] = None
    snapshot: Optional[Dict[str, Any]] = None  # obs.Snapshot.to_dict()
    corpus_doc: Optional[Dict[str, Any]] = None  # {"jobs": [...], "summary": {...}}
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def elapsed(self) -> float:
        if self.started is None:
            return 0.0
        end = self.finished if self.finished is not None else time.monotonic()
        return end - self.started

    def row(self) -> Dict[str, Any]:
        """The status-file / ``status`` op row."""
        return {
            "request_id": self.request_id,
            "state": self.state,
            "target": self.target,
            "shards": self.shards,
            "total": self.jobs_total,
            "done": self.jobs_done,
            "verdicts": {k: v for k, v in sorted(self.verdicts.items())},
            "cache_hits": self.cache_hits,
            "elapsed": round(self.elapsed(), 3),
            "error": self.error,
        }


class _StreamListener(ProgressListener):
    """Bridges the engine's progress callbacks onto the event stream:
    every completed job becomes one ``serve.job`` line carrying the
    canonical job object (observations stripped — the merged capture
    is downloadable via ``trace`` instead of repeated per line)."""

    def __init__(
        self,
        dispatcher: "Dispatcher",
        request: Request,
        emit: Callable[[Dict[str, Any]], None],
        shard: Optional[int] = None,
    ) -> None:
        self._dispatcher = dispatcher
        self._request = request
        self._emit = emit
        self._shard = shard

    def begin(self, total: int, cache_hits: int, to_run: int) -> None:
        with self._dispatcher._lock:
            self._request.cache_hits += cache_hits
            # Cache hits resolve in the parent before any job_done
            # callback fires; they still count as completed jobs.
            self._request.jobs_done += cache_hits
            for _ in range(cache_hits):
                self._request.verdicts["cached"] = (
                    self._request.verdicts.get("cached", 0) + 1
                )

    def job_done(self, result: Any, done: int, to_run: int) -> None:
        with self._dispatcher._lock:
            self._request.jobs_done += 1
            self._request.verdicts[result.verdict] = (
                self._request.verdicts.get(result.verdict, 0) + 1
            )
            done_total = self._request.jobs_done
        job = job_object(result)
        job["observations"] = {}
        fields: Dict[str, Any] = {
            "job": job,
            "verdict": result.verdict,
            "done": done_total,
            "total": self._request.jobs_total,
        }
        if self._shard is not None:
            fields["shard"] = self._shard
        self._emit(
            event(
                "serve.job", "job finished",
                request_id=self._request.request_id, **fields,
            )
        )
        journal_data: Dict[str, Any] = {
            "request_id": self._request.request_id,
            "job": job,
            "verdict": result.verdict,
        }
        if self._shard is not None:
            journal_data["shard"] = self._shard
        self._dispatcher._journal("job", journal_data)
        self._dispatcher._write_status()


class Dispatcher:
    """See the module doc.  Thread-safety: every public method may be
    called from the event loop; ``_execute`` and the listener run in
    worker threads and take ``_lock`` around shared state."""

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        queue_limit: int = 8,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        status_file: Optional[str] = None,
        journal: Optional[Journal] = None,
        max_request_events: int = MAX_REQUEST_EVENTS,
    ) -> None:
        self.pool = WorkerPool(jobs)
        self.queue_limit = queue_limit
        self.default_timeout = timeout
        self.cache_dir = cache_dir
        self.status_file = status_file
        self.journal = journal
        self.max_request_events = max_request_events
        self.busy_rejections = 0
        self.recovered_interrupted = 0
        self._requests: Dict[str, Request] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        # Server-lifetime registries behind /metrics and the shutdown
        # --metrics flush.  Request snapshots fold in their registries
        # only: their spans and events stay with the request, so the
        # recorder does not grow with every request served.
        self._recorder = obs.Recorder(log_level=None)
        self._started = time.monotonic()
        if journal is not None:
            self._recover_from_journal()
            self._journal("meta", {
                "phase": "serve-started",
                "queue_limit": queue_limit,
                "recovered_interrupted": self.recovered_interrupted,
            })

    def _journal(self, type: str, data: Dict[str, Any]) -> None:
        """Best-effort append — disk trouble must never fail a request."""
        if self.journal is None:
            return
        try:
            self.journal.append(type, data)
        except (OSError, ValueError):
            pass

    def _recover_from_journal(self) -> None:
        """Rebuild the request table from the journal left by the
        previous process (see the module doc).  Requests whose last
        journaled phase was non-terminal are marked ``interrupted``
        and re-journaled as such, so the *next* restart sees them
        settled rather than re-deriving the interruption."""
        assert self.journal is not None
        try:
            replay = replay_journal(self.journal.directory)
        except ValueError:
            return  # fresh journal directory: nothing to recover
        interrupted_rows: List[Dict[str, Any]] = []
        max_id = 0
        with self._lock:
            for request_id in sorted(replay.requests):
                info = replay.requests[request_id]
                row = info.get("row") or {}
                request = Request(
                    request_id=request_id,
                    payload=dict(info.get("payload") or {}),
                    target=str(row.get("target") or ""),
                    shards=int(row.get("shards") or 1),
                )
                request.jobs_total = int(row.get("total") or 0)
                request.jobs_done = int(row.get("done") or 0)
                request.verdicts = dict(row.get("verdicts") or {})
                request.cache_hits = int(row.get("cache_hits") or 0)
                request.error = row.get("error")
                elapsed = float(row.get("elapsed") or 0.0)
                if elapsed:
                    # preserve the journaled elapsed through row()'s
                    # monotonic recomputation
                    request.finished = time.monotonic()
                    request.started = request.finished - elapsed
                if info["state"] == "interrupted":
                    request.state = "interrupted"
                    request.error = request.error or (
                        "interrupted: daemon exited mid-request "
                        "(recovered from journal)"
                    )
                    self.recovered_interrupted += 1
                    self._recorder.add("serve.requests.interrupted", 1)
                    interrupted_rows.append(request.row())
                else:
                    request.state = str(info["state"])
                    snapshot = replay.snapshot_dicts.get(request_id)
                    if snapshot is not None:
                        request.snapshot = snapshot
                    jobs = replay.jobs_by_request.get(request_id)
                    if jobs:
                        request.corpus_doc = {
                            "jobs": list(jobs),
                            "summary": dict(info.get("summary") or {}),
                        }
                self._requests[request_id] = request
                digits = request_id.lstrip("r")
                if digits.isdigit():
                    max_id = max(max_id, int(digits))
            if max_id:
                self._ids = itertools.count(max_id + 1)
            self._recorder.add("serve.journal.recovered", len(replay.requests))
            self._prune_locked()
        self._journal("meta", {
            "phase": "recovered",
            "requests": len(replay.requests),
            "interrupted": self.recovered_interrupted,
            "corrupt_records": replay.corrupt,
        })
        for row in interrupted_rows:
            self._journal("request", {
                "request_id": row["request_id"],
                "phase": "interrupted",
                "row": row,
            })
        flight.note("serve.recovered", requests=len(replay.requests),
                    interrupted=self.recovered_interrupted)
        self._write_status()

    # -- admission ---------------------------------------------------------

    def active(self) -> List[Request]:
        with self._lock:
            return [
                request for request in self._requests.values()
                if request.state in ("queued", "running")
            ]

    def admit(self, payload: Dict[str, Any]) -> Request:
        """Accept a validated submit payload or raise :class:`BusyError`
        past the high-water mark."""
        target = payload.get("corpus_dir") or (
            "%s x %s" % (payload.get("transducer"), payload.get("schema"))
        )
        with self._lock:
            active = sum(
                1 for request in self._requests.values()
                if request.state in ("queued", "running")
            )
            if active >= self.queue_limit:
                self.busy_rejections += 1
                self._recorder.add("serve.busy_rejections", 1)
                raise BusyError(
                    "admission queue full: %d active requests at the "
                    "high-water mark of %d" % (active, self.queue_limit)
                )
            request = Request(
                request_id="r%04d" % next(self._ids),
                payload=dict(payload),
                target=str(target),
                shards=int(payload.get("shards", 1)),
            )
            self._requests[request.request_id] = request
            self._recorder.add("serve.requests.accepted", 1)
            self._prune_locked()
        self._journal("request", {
            "request_id": request.request_id,
            "phase": "admitted",
            "row": request.row(),
            "payload": dict(payload),
        })
        flight.note("serve.admitted", request_id=request.request_id,
                    target=request.target)
        self._write_status()
        return request

    def _prune_locked(self) -> None:
        finished = [
            request_id
            for request_id, request in self._requests.items()
            if request.state not in ("queued", "running")
        ]
        for request_id in finished[: max(0, len(finished) - KEEP_FINISHED)]:
            del self._requests[request_id]

    # -- the async face ----------------------------------------------------

    async def stream(self, request: Request) -> AsyncIterator[Dict[str, Any]]:
        """Execute the request in a worker thread, yielding its event
        stream; the final yielded event is always terminal."""
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()

        def emit(payload: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, payload)

        task = asyncio.ensure_future(
            asyncio.to_thread(self._execute, request, emit)
        )
        try:
            while True:
                item = await queue.get()
                yield item
                if is_terminal(item):
                    break
        finally:
            # A client that disconnected mid-stream withdraws its
            # request; the engine polls the flag between waves.
            if request.state in ("queued", "running"):
                request.cancel_event.set()
            await task

    # -- execution (worker threads) ----------------------------------------

    def _execute(
        self, request: Request, emit: Callable[[Dict[str, Any]], None]
    ) -> None:
        with self._lock:
            request.state = "running"
            request.started = time.monotonic()
        self._journal("request", {
            "request_id": request.request_id,
            "phase": "started",
            "row": request.row(),
        })
        emit(
            event(
                "serve.request", "request accepted",
                request_id=request.request_id,
                target=request.target, shards=request.shards,
                protocol=PROTOCOL_VERSION,
            )
        )
        self._write_status()
        try:
            jobs, cache = self._resolve(request.payload)
            with self._lock:
                request.jobs_total = len(jobs)
            emit(
                event(
                    "serve.progress", "run started",
                    request_id=request.request_id,
                    jobs=len(jobs), shards=request.shards,
                )
            )
            timeout = request.payload.get("timeout", self.default_timeout)
            if request.shards == 1:
                summary, snapshot = self._run_group(
                    request, emit, jobs, cache, timeout, shard=None
                )
            else:
                summary, snapshot = self._run_sharded(
                    request, emit, jobs, cache, timeout
                )
        except (CorpusError, OSError, ValueError) as error:
            with self._lock:
                request.state = "failed"
                request.error = "%s: %s" % (type(error).__name__, error)
                request.finished = time.monotonic()
                self._recorder.add("serve.requests.failed", 1)
            self._journal("request", {
                "request_id": request.request_id,
                "phase": "failed",
                "row": request.row(),
            })
            flight.note("serve.failed", request_id=request.request_id,
                        error=request.error)
            emit(
                event(
                    "serve.request", "request failed", level="error",
                    request_id=request.request_id, error=request.error,
                )
            )
            self._write_status()
            return
        self._finish(request, emit, summary, snapshot)

    def _finish(
        self,
        request: Request,
        emit: Callable[[Dict[str, Any]], None],
        summary: RunSummary,
        snapshot: obs.Snapshot,
    ) -> None:
        corpus_doc = {
            "jobs": [self._job_row(result) for result in summary.results],
            "summary": summary_dict(summary)["summary"],
        }
        cancelled = request.cancel_event.is_set()
        with self._lock:
            request.snapshot = snapshot.to_dict()
            request.corpus_doc = corpus_doc
            request.state = "cancelled" if cancelled else "done"
            request.finished = time.monotonic()
            snapshot.without_replayable_state().merge_into(self._recorder)
            self._recorder.add(
                "serve.requests.cancelled" if cancelled
                else "serve.requests.finished", 1
            )
            self._recorder.observe(
                "serve.request.ms", request.elapsed() * 1000.0
            )
        self._journal("snapshot", {
            "request_id": request.request_id,
            "snapshot": request.snapshot,
        })
        self._journal("request", {
            "request_id": request.request_id,
            "phase": "cancelled" if cancelled else "finished",
            "row": request.row(),
            "summary": corpus_doc["summary"],
        })
        flight.note("serve.finished", request_id=request.request_id,
                    state=request.state)
        message = "request cancelled" if cancelled else "request finished"
        emit(
            event(
                "serve.request", message,
                level="warning" if cancelled else "info",
                request_id=request.request_id,
                summary=corpus_doc["summary"],
                cache_footer=cache_footer(summary),
                failing=len(summary.failing()),
                pool=self.pool.stats(),
            )
        )
        self._write_status()

    @staticmethod
    def _job_row(result: Any) -> Dict[str, Any]:
        job = job_object(result)
        job["observations"] = {}
        return job

    def _resolve(
        self, payload: Dict[str, Any]
    ) -> Tuple[List[JobSpec], Optional[ResultCache]]:
        """Job discovery for a submit payload: a corpus directory or a
        single pair.  The cache is the corpus's own ``.repro-cache``
        (shared by every request touching that corpus, and by one-shot
        ``batch`` runs) unless the server pins ``--cache-dir``."""
        if payload.get("corpus_dir"):
            corpus_dir = str(payload["corpus_dir"])
            jobs = discover_jobs(corpus_dir)
            cache = (
                None if payload.get("no_cache")
                else open_cache(corpus_dir, self.cache_dir)
            )
            return jobs, cache
        spec = JobSpec(
            transducer_path=str(payload["transducer"]),
            schema_path=str(payload["schema"]),
            protect=tuple(str(label) for label in payload.get("protect", ())),
        )
        cache = (
            ResultCache(self.cache_dir)
            if self.cache_dir and not payload.get("no_cache")
            else None
        )
        return [spec], cache

    def _run_group(
        self,
        request: Request,
        emit: Callable[[Dict[str, Any]], None],
        jobs: List[JobSpec],
        cache: Optional[ResultCache],
        timeout: Optional[float],
        shard: Optional[int],
    ) -> Tuple[RunSummary, obs.Snapshot]:
        """One engine run under its own recorder; returns the summary
        plus the captured Snapshot."""
        listener = _StreamListener(self, request, emit, shard=shard)
        with obs.recording(log_level=obs.INFO,
                           max_events=self.max_request_events) as recorder:
            with obs.span("serve.request") as span:
                span.set("request_id", request.request_id)
                if shard is not None:
                    span.set("shard", shard)
                summary = run_corpus(
                    jobs,
                    timeout=timeout,
                    cache=cache,
                    progress=listener,
                    pool=self.pool,
                    cancel=request.cancel_event.is_set,
                )
        dropped = recorder.counters.get("obs.events.dropped", 0)
        if dropped:
            with self._lock:
                self._recorder.add("serve.events.dropped", dropped)
        return summary, obs.Snapshot.from_recorder(recorder)

    def _run_sharded(
        self,
        request: Request,
        emit: Callable[[Dict[str, Any]], None],
        jobs: List[JobSpec],
        cache: Optional[ResultCache],
        timeout: Optional[float],
    ) -> Tuple[RunSummary, obs.Snapshot]:
        """The serve-side splitter: N deterministic shard groups run
        concurrently over the one shared pool (work stealing — see the
        module doc), then merge into one summary + Snapshot."""
        import concurrent.futures

        count = request.shards
        groups = [filter_shard(jobs, index, count) for index in range(count)]
        start = time.perf_counter()
        outcomes: List[Tuple[RunSummary, obs.Snapshot]] = []
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=count, thread_name_prefix="repro-shard"
        ) as shard_runners:
            futures = {
                shard_runners.submit(
                    self._run_group, request, emit,
                    group, cache, timeout, index,
                ): index
                for index, group in enumerate(groups)
                if group
            }
            for future in concurrent.futures.as_completed(futures):
                summary, snapshot = future.result()
                index = futures[future]
                self._journal("request", {
                    "request_id": request.request_id,
                    "phase": "shard",
                    "shard": index,
                    "shards": count,
                    "row": request.row(),
                })
                emit(
                    event(
                        "serve.progress", "shard finished",
                        request_id=request.request_id,
                        shard=index, shards=count,
                        jobs=len(summary.results),
                        cache_footer=cache_footer(summary),
                    )
                )
                outcomes.append((summary, snapshot))
        results = [
            result for summary, _ in outcomes for result in summary.results
        ]
        results.sort(key=_sort_key)
        merged = RunSummary(
            results=results,
            cache_hits=sum(summary.cache_hits for summary, _ in outcomes),
            cache_misses=sum(summary.cache_misses for summary, _ in outcomes),
            wall_time_s=time.perf_counter() - start,
            analysis_time_s=sum(
                summary.analysis_time_s for summary, _ in outcomes
            ),
            workers=self.pool.max_workers,
            engine=ENGINE_VERSION,
        )
        snapshot = obs.Snapshot.merge_all(
            [snapshot for _, snapshot in outcomes]
        )
        return merged, snapshot

    # -- queries -----------------------------------------------------------

    def get(self, request_id: str) -> Optional[Request]:
        with self._lock:
            return self._requests.get(request_id)

    def cancel(self, request_id: str) -> bool:
        """Withdraw an in-flight request (already-running jobs finish;
        queued jobs come back as ``cancelled`` results)."""
        request = self.get(request_id)
        if request is None or request.state not in ("queued", "running"):
            return False
        request.cancel_event.set()
        self._journal("request", {
            "request_id": request_id,
            "phase": "cancel_requested",
            "row": request.row(),
        })
        return True

    def cancel_all(self) -> int:
        count = 0
        for request in self.active():
            request.cancel_event.set()
            count += 1
        return count

    def status_document(self) -> Dict[str, Any]:
        """The ``status`` op / ``GET /status`` / status-file document."""
        with self._lock:
            rows = [request.row() for request in self._requests.values()]
            active = sum(1 for row in rows if row["state"] in ("queued", "running"))
            busy = self.busy_rejections
        document: Dict[str, Any] = {
            "ts": time.time(),
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "server": {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "queue_limit": self.queue_limit,
                "active": active,
                "busy_rejections": busy,
                "requests_total": len(rows),
            },
            "pool": self.pool.stats(),
            "requests": rows,
        }
        if self.journal is not None:
            health = self.journal.health()
            health["interrupted_recovered"] = self.recovered_interrupted
            document["journal"] = health
        return document

    def trace_snapshot(self, request_id: str) -> Optional[obs.Snapshot]:
        request = self.get(request_id)
        if request is None or request.snapshot is None:
            return None
        return obs.Snapshot.from_dict(request.snapshot)

    def trace_html(self, request_id: str) -> Optional[str]:
        """The per-request HTML observability report (the ``GET
        /trace/<id>`` artifact CI uploads)."""
        from ..obs import html as obs_html

        request = self.get(request_id)
        if request is None or request.snapshot is None:
            return None
        return obs_html.snapshot_report(
            obs.Snapshot.from_dict(request.snapshot),
            corpus=request.corpus_doc,
            title="repro serve request %s" % request_id,
            generated=time.strftime(
                "%Y-%m-%d %H:%M:%S UTC", time.gmtime()
            ),
        )

    def render_metrics(self) -> str:
        """OpenMetrics text of the server-lifetime registries."""
        with self._lock:
            return obs.render_openmetrics(
                self._recorder.counters,
                self._recorder.gauges,
                self._recorder.histograms,
            )

    # -- the status file ---------------------------------------------------

    def _write_status(self) -> None:
        if self.status_file is None:
            return
        try:
            write_status_file(self.status_file, self.status_document())
        except OSError:
            pass

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, hard: bool = False) -> None:
        self.pool.shutdown(hard=hard)
        if self.journal is not None:
            self._journal("meta", {"phase": "shutdown", "hard": hard})
            try:
                self.journal.close()
            except OSError:
                pass
