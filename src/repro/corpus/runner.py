"""Parallel job execution with per-job timeouts and failure isolation.

:func:`analyze_pair` is the single-pair analysis shared by the corpus
engine and ``python -m repro check --format json``: it runs the full
Theorem 4.11 decision plus the :mod:`repro.lint` diagnostics under a
fresh :mod:`repro.obs` recorder and folds everything into one
:class:`JobResult`.

:func:`run_corpus` drives many jobs:

* cache lookups happen in the parent (parsing is cheap; the expensive
  part is the automata pipeline), misses are submitted to a
  ``ProcessPoolExecutor``;
* each worker enforces the per-job timeout *inside* the job via
  ``signal.setitimer`` (worker processes run tasks on their main
  thread, so SIGALRM interrupts even a hung automata construction);
  the parent keeps a generous backstop deadline in case a worker dies
  without reporting;
* any per-job failure — parse error, analysis crash, timeout — becomes
  a structured ``error``/``timeout`` result; nothing a single pair
  does can take down the run;
* per-job counters — and, when the parent is logging, the worker's
  buffered span-correlated log events and span trees — travel back as
  :class:`repro.obs.Snapshot` dicts and are merged into the parent's
  recorder, so one ``--stats`` view aggregates the batch and the
  parent's ``--log`` JSONL / ``--trace`` file cover work done inside
  the workers.

Progress goes through a :class:`ProgressListener`: the engine reports
run begin, every job completion, and a once-a-second heartbeat naming
the slowest in-flight job; :class:`ProgressReporter` is the TTY
implementation (single live line on stderr, auto-disabled when the
output is piped so machine-read streams stay clean).

Timeout results are never cached (they are transient); parse errors
are (they are deterministic consequences of the file's content).
Cached observations are stripped of events and spans before storage —
a cache hit must never replay a stale log.
"""

from __future__ import annotations

import concurrent.futures
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from .. import obs
from ..lint import severity_order
from . import telemetry
from .cache import ENGINE_VERSION, ResultCache, job_cache_key
from .manifest import JobSpec

__all__ = [
    "JobResult",
    "RunSummary",
    "ProgressListener",
    "ProgressReporter",
    "WorkerPool",
    "VERDICT_RANK",
    "analyze_pair",
    "run_corpus",
    "job_fails",
]

#: Report ordering: worst verdicts first.  ``cancelled`` (a request
#: withdrawn while jobs were still queued — the serve surface) ranks
#: between the engine-level failures and the analysis verdicts.
VERDICT_RANK: Dict[str, int] = {
    "error": 0, "timeout": 1, "cancelled": 2, "unsafe": 3, "safe": 4,
}

#: Test-only fault injection: ``"SUBSTR:SECONDS"`` makes workers sleep
#: SECONDS before analysing any job whose transducer path contains
#: SUBSTR — the only way to exercise the timeout path deterministically
#: across the process boundary.
FAULT_DELAY_ENV = "REPRO_CORPUS_TEST_DELAY"


class _JobTimeout(BaseException):
    """Raised by the in-worker SIGALRM handler; derives from
    BaseException so no analysis-level ``except Exception`` can swallow
    the deadline."""


class ProgressListener:
    """The engine's progress interface; every method is a no-op so
    implementations override only what they render.

    ``in_flight`` in :meth:`heartbeat` is ``(job_id, elapsed_seconds)``
    pairs for jobs currently observed running in a worker, slowest
    first — the heartbeat fires even when nothing completes, so a hung
    or near-timeout job is visible while it hangs, not after.
    """

    def begin(self, total: int, cache_hits: int, to_run: int) -> None:
        pass

    def job_done(self, result: "JobResult", done: int, to_run: int) -> None:
        pass

    def heartbeat(
        self, done: int, to_run: int,
        in_flight: List[Tuple[str, float]],
    ) -> None:
        pass

    def worker_update(self, workers: List[Any]) -> None:
        """Live sideband telemetry: one
        :class:`repro.corpus.telemetry.WorkerState` per in-flight job,
        slowest first.  Only fires when the run has the telemetry
        channel enabled (a stall threshold or status file)."""
        pass

    def message(self, text: str) -> None:
        pass

    def finish(self) -> None:
        pass


class _JournalTee(ProgressListener):
    """Tees engine progress into a :class:`repro.obs.Journal` before
    delegating to the real listener: one ``run`` record at begin, one
    ``job`` record per completed job (the canonical job object with
    the bulky observations stripped — the full Snapshot is journaled
    once at the end of the run instead)."""

    def __init__(self, inner: ProgressListener, journal: Any) -> None:
        self._inner = inner
        self._journal = journal

    def _append(self, type: str, data: Dict[str, Any]) -> None:
        try:
            self._journal.append(type, data)
        except (OSError, ValueError):
            pass  # a full disk must not fail the run

    def begin(self, total: int, cache_hits: int, to_run: int) -> None:
        self._append("run", {
            "phase": "begin", "total": total,
            "cache_hits": cache_hits, "to_run": to_run,
        })
        self._inner.begin(total, cache_hits, to_run)

    def job_done(self, result: "JobResult", done: int, to_run: int) -> None:
        job = result.to_dict()
        job["observations"] = {}
        self._append("job", {"job": job, "verdict": result.verdict,
                             "done": done})
        self._inner.job_done(result, done, to_run)

    def heartbeat(
        self, done: int, to_run: int,
        in_flight: List[Tuple[str, float]],
    ) -> None:
        self._inner.heartbeat(done, to_run, in_flight)

    def worker_update(self, workers: List[Any]) -> None:
        self._inner.worker_update(workers)

    def message(self, text: str) -> None:
        self._inner.message(text)

    def finish(self) -> None:
        self._inner.finish()


class ProgressReporter(ProgressListener):
    """TTY progress: one live status line on ``stream`` (stderr),
    rewritten in place; non-``safe`` completions print as full lines
    above it.  When ``live`` is false — the stream or stdout is piped —
    the reporter is silent, so ``batch --format json > out.jsonl``
    produces nothing but the report on stdout.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 live: Optional[bool] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            # Live rendering needs a terminal on the status stream, and
            # stays out of the way entirely when stdout is being piped
            # into a machine reader.
            live = (
                getattr(self.stream, "isatty", lambda: False)()
                and getattr(sys.stdout, "isatty", lambda: False)()
            )
        self.live = live
        self._total = 0
        self._hits = 0
        self._to_run = 0
        self._done = 0
        self._bad: Dict[str, int] = {}
        self._line_open = False

    # -- listener interface ------------------------------------------------

    def begin(self, total: int, cache_hits: int, to_run: int) -> None:
        self._total, self._hits, self._to_run = total, cache_hits, to_run
        self._render("starting")

    def job_done(self, result: "JobResult", done: int, to_run: int) -> None:
        self._done = done
        if result.verdict != "safe":
            self._bad[result.verdict] = self._bad.get(result.verdict, 0) + 1
            self._print_line(
                "%-7s %s  (%.3fs)"
                % (result.verdict, result.job_id, result.wall_time_s)
            )
        self._render("")

    def heartbeat(
        self, done: int, to_run: int,
        in_flight: List[Tuple[str, float]],
    ) -> None:
        self._done = done
        tail = ""
        if in_flight:
            job_id, elapsed = in_flight[0]
            tail = "running %s (%.1fs)" % (job_id, elapsed)
        self._render(tail)

    def message(self, text: str) -> None:
        self._print_line(text)
        self._render("")

    def finish(self) -> None:
        self._clear()

    # -- rendering ---------------------------------------------------------

    def _status(self, tail: str) -> str:
        parts = ["batch %d/%d done" % (self._done, self._to_run)]
        if self._hits:
            parts.append("%d cache hits" % self._hits)
        for verdict in ("error", "timeout", "unsafe"):
            if self._bad.get(verdict):
                parts.append("%d %s" % (self._bad[verdict], verdict))
        if tail:
            parts.append(tail)
        return " · ".join(parts)

    def _render(self, tail: str) -> None:
        if not self.live:
            return
        width = shutil.get_terminal_size(fallback=(80, 24)).columns
        line = self._status(tail)[: max(1, width - 1)]
        self.stream.write("\r\x1b[2K" + line)
        self.stream.flush()
        self._line_open = True

    def _print_line(self, text: str) -> None:
        if not self.live:
            return
        self._clear()
        self.stream.write(text + "\n")
        self.stream.flush()

    def _clear(self) -> None:
        if self.live and self._line_open:
            self.stream.write("\r\x1b[2K")
            self.stream.flush()
            self._line_open = False


def _pool_worker_signals() -> None:
    """Initializer of :class:`WorkerPool` workers: SIGTERM kills them
    and SIGINT is ignored.

    Workers are forked after ``repro serve`` has routed SIGINT/SIGTERM
    into its event loop, and inherited, those handlers would swallow
    the ``terminate()`` of a hard shutdown.  SIGINT stays ignored
    because Ctrl-C reaches the whole foreground process group, and the
    first-signal drain must let running jobs finish.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool:
    """A reusable, lazily-started worker pool that outlives a single
    :func:`run_corpus` call.

    The one-shot CLI path creates a fresh ``ProcessPoolExecutor`` per
    batch and tears it down at the end; a long-running service cannot
    afford that — fork/spawn plus interpreter warm-up per request is
    exactly the latency the ROADMAP's "warm pools" item is about.  The
    serve dispatcher creates one ``WorkerPool`` and passes it to every
    ``run_corpus(..., pool=...)`` call; the pool's worker processes
    stay hot (imports done, code objects warm) across requests, and
    :meth:`spawned_total` lets callers assert that an all-cache-hits
    request started **zero** new workers.

    Not used together with the corpus telemetry sideband: the sampler
    initializer must be installed at pool-creation time, so a shared
    pool runs without in-worker samplers (the serve dispatcher has its
    own per-request status rows instead).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._spawned: set = set()  # every worker pid ever observed
        self._pools_created = 0

    @property
    def executor(self) -> concurrent.futures.ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_pool_worker_signals
            )
            self._pools_created += 1
        return self._executor

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the workers currently alive (empty before first use)."""
        if self._executor is None:
            return ()
        processes = getattr(self._executor, "_processes", None) or {}
        return tuple(sorted(processes))

    def note_spawned(self) -> None:
        """Fold the currently-alive pids into the spawn ledger (called
        by the engine after each wave so :meth:`spawned_total` counts
        every worker that ever existed, not just the survivors)."""
        self._spawned.update(self.worker_pids())

    def spawned_total(self) -> int:
        """How many distinct worker processes this pool has ever
        started — the serve acceptance check: a 100%-cache-hit request
        must leave this number unchanged."""
        self.note_spawned()
        return len(self._spawned)

    def reset_if_broken(self) -> bool:
        """Replace the executor if a worker died hard enough to poison
        it (``BrokenProcessPool`` marks the executor unusable); returns
        whether a reset happened.  The dead pool is abandoned, not
        joined — its processes are already gone."""
        if self._executor is not None and getattr(self._executor, "_broken", False):
            self.note_spawned()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            return True
        return False

    def shutdown(self, hard: bool = False) -> None:
        """Stop the pool.  ``hard`` additionally terminates the worker
        processes (the second-signal path of the serve daemon) instead
        of letting in-flight jobs finish."""
        if self._executor is None:
            return
        self.note_spawned()
        if hard:
            processes = getattr(self._executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        self._executor.shutdown(wait=not hard, cancel_futures=True)
        self._executor = None

    def stats(self) -> Dict[str, Any]:
        """The pool row for status files and the serve protocol."""
        return {
            "max_workers": self.max_workers,
            "alive": len(self.worker_pids()),
            "spawned_total": self.spawned_total(),
            "pools_created": self._pools_created,
        }


@dataclass
class JobResult:
    """The structured outcome of one (transducer, schema, protect) job."""

    job_id: str
    transducer: str
    schema: str
    protect: Tuple[str, ...] = ()
    verdict: str = "error"  # safe | unsafe | error | timeout
    copying: Optional[bool] = None
    rearranging: Optional[bool] = None
    protected_deletions: Tuple[str, ...] = ()
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    counter_example_xml: Optional[str] = None
    observations: Dict[str, Any] = field(default_factory=dict)  # obs.Snapshot.to_dict()
    wall_time_s: float = 0.0
    cache_hit: bool = False
    error: Optional[str] = None
    engine: str = ENGINE_VERSION

    def severity_counts(self) -> Dict[str, int]:
        counts = {"info": 0, "warning": 0, "error": 0}
        for diagnostic in self.diagnostics:
            severity = diagnostic.get("severity")
            if severity in counts:
                counts[severity] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """The stable JSON object — what ``check --format json``
        prints, what ``batch --format json`` streams, and what the
        serve protocol's job events carry.  The schema itself lives in
        :func:`repro.corpus.report.job_object` (one function, three
        surfaces, no drift)."""
        from .report import job_object

        return job_object(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobResult":
        return cls(
            job_id=payload["job_id"],
            transducer=payload.get("transducer", ""),
            schema=payload.get("schema", ""),
            protect=tuple(payload.get("protect", ())),
            verdict=payload.get("verdict", "error"),
            copying=payload.get("copying"),
            rearranging=payload.get("rearranging"),
            protected_deletions=tuple(payload.get("protected_deletions", ())),
            diagnostics=list(payload.get("diagnostics", ())),
            counter_example_xml=payload.get("counter_example_xml"),
            observations=dict(payload.get("observations", {})),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            error=payload.get("error"),
            engine=payload.get("engine", ENGINE_VERSION),
        )


def _sort_key(result: JobResult) -> Tuple[int, int, int, str]:
    counts = result.severity_counts()
    return (
        VERDICT_RANK.get(result.verdict, 0),
        -counts["error"],
        -counts["warning"],
        result.job_id,
    )


def job_fails(result: JobResult, fail_on: str = "error") -> bool:
    """Whether a job counts against the exit code: non-``safe``
    verdicts always do; ``safe`` jobs do when they carry diagnostics
    at/above the threshold."""
    if result.verdict != "safe":
        return True
    threshold = severity_order(fail_on)
    return any(
        severity_order(d.get("severity", "info")) >= threshold for d in result.diagnostics
    )


def analyze_pair(
    transducer_path: str,
    schema_path: str,
    protect: Sequence[str] = (),
    *,
    job_id: Optional[str] = None,
    transducer_name: Optional[str] = None,
    schema_name: Optional[str] = None,
    log_level: Optional[int] = None,
    on_recording: Optional[Callable[[Any], None]] = None,
) -> JobResult:
    """Run the full single-pair analysis, catching per-pair failures
    into an ``error`` result (timeouts — :class:`_JobTimeout` — always
    propagate to the worker loop).  ``log_level`` turns on structured
    event buffering under the job's recorder; the events ship back in
    ``result.observations``.  ``on_recording`` receives the job's
    recorder right after installation — the telemetry sampler thread
    cannot reach it through the (thread-local) ContextVar, so the
    worker hands it over explicitly."""
    from ..cli import CliError

    spec = JobSpec(
        transducer_path=transducer_path,
        schema_path=schema_path,
        protect=tuple(protect),
        transducer_name=transducer_name or "",
        schema_name=schema_name or "",
    )
    result = JobResult(
        job_id=job_id or spec.job_id,
        transducer=spec.transducer_name,
        schema=spec.schema_name,
        protect=spec.protect,
    )
    start = time.perf_counter()
    with obs.recording(log_level=log_level) as recorder:
        if on_recording is not None:
            on_recording(recorder)
        with obs.span("corpus.job") as job_span:
            job_span.set("job_id", result.job_id)
            obs.info(
                "corpus.job", "analysis started",
                job_id=result.job_id, transducer=transducer_path,
                schema=schema_path, protect=list(spec.protect),
            )
            try:
                result = _analyze_loaded(
                    result, spec, transducer_path, schema_path
                )
            except (CliError, FileNotFoundError, OSError, ValueError, TypeError) as error:
                result.verdict = "error"
                result.error = "%s: %s" % (type(error).__name__, error)
                obs.error(
                    "corpus.job", "analysis failed",
                    job_id=result.job_id, error=result.error,
                )
            else:
                obs.info(
                    "corpus.job", "analysis finished",
                    job_id=result.job_id, verdict=result.verdict,
                )
            job_span.set("verdict", result.verdict)
    result.observations = obs.Snapshot.from_recorder(recorder).to_dict()
    result.wall_time_s = time.perf_counter() - start
    return result


def _analyze_loaded(
    result: JobResult,
    spec: JobSpec,
    transducer_path: str,
    schema_path: str,
) -> JobResult:
    """The body of :func:`analyze_pair`, inside the job recorder/span."""
    from ..analysis import (
        counter_example,
        deletes_protected_text,
        diagnose,
        is_copying,
        is_rearranging,
    )
    from ..cli import load_schema_ex, load_transducer_ex
    from ..lint import SourceInfo
    from ..trees.xmlio import tree_to_xml

    loaded_transducer = load_transducer_ex(transducer_path)
    loaded_schema = load_schema_ex(schema_path)
    transducer, dtd = loaded_transducer.transducer, loaded_schema.dtd
    result.copying = is_copying(transducer, dtd)
    result.rearranging = is_rearranging(transducer, dtd)
    result.protected_deletions = tuple(
        label
        for label in spec.protect
        if deletes_protected_text(transducer, dtd, label)
    )
    sources = SourceInfo(
        transducer_path=transducer_path,
        schema_path=schema_path,
        rule_lines=loaded_transducer.rule_lines,
        state_lines=loaded_transducer.state_lines,
        label_lines=loaded_schema.label_lines,
    )
    result.diagnostics = [
        diagnostic.to_dict()
        for diagnostic in diagnose(transducer, dtd, spec.protect, sources=sources)
    ]
    if result.copying or result.rearranging:
        witness = counter_example(transducer, dtd)
        if witness is not None:
            result.counter_example_xml = tree_to_xml(witness).strip()
    result.verdict = (
        "unsafe"
        if result.copying or result.rearranging or result.protected_deletions
        else "safe"
    )
    return result


def _worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool entry point: one job in, one ``JobResult`` dict out.

    Enforces the per-job timeout via ``setitimer`` where available
    (Unix); a fired deadline yields a ``timeout`` result and leaves the
    worker process healthy for the next job.
    """
    timeout = payload.get("timeout")
    use_timer = bool(timeout) and hasattr(signal, "setitimer")

    def on_alarm(_signum: int, _frame: Any) -> None:
        raise _JobTimeout()

    previous = None
    if use_timer:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
    start = time.perf_counter()
    # The telemetry slot opens before the fault-injection sleep so a
    # deliberately hung job is visible to the sampler while it hangs.
    telemetry.job_started(payload.get("job_id") or payload["transducer_path"])
    try:
        _maybe_inject_delay(payload["transducer_path"])
        result = analyze_pair(
            payload["transducer_path"],
            payload["schema_path"],
            tuple(payload.get("protect", ())),
            job_id=payload.get("job_id"),
            transducer_name=payload.get("transducer_name"),
            schema_name=payload.get("schema_name"),
            log_level=payload.get("log_level"),
            on_recording=telemetry.attach_recorder,
        )
    except _JobTimeout:
        result = JobResult(
            job_id=payload.get("job_id", ""),
            transducer=payload.get("transducer_name", ""),
            schema=payload.get("schema_name", ""),
            protect=tuple(payload.get("protect", ())),
            verdict="timeout",
            error="job exceeded the %.3gs timeout" % float(timeout),
            wall_time_s=time.perf_counter() - start,
        )
    finally:
        telemetry.job_finished()
        if use_timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return result.to_dict()


def _maybe_inject_delay(transducer_path: str) -> None:
    spec = os.environ.get(FAULT_DELAY_ENV)
    if not spec:
        return
    substring, _, seconds = spec.partition(":")
    if substring and substring in transducer_path:
        time.sleep(float(seconds))


@dataclass
class RunSummary:
    """Everything a report needs about one corpus run."""

    results: List[JobResult]
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time_s: float = 0.0  # end-to-end engine time
    analysis_time_s: float = 0.0  # sum of per-job wall times (cached jobs excluded)
    workers: int = 1
    engine: str = ENGINE_VERSION

    def verdict_counts(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICT_RANK}
        for result in self.results:
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def slowest(self) -> Optional[JobResult]:
        fresh = [result for result in self.results if not result.cache_hit]
        if not fresh:
            return None
        return max(fresh, key=lambda result: result.wall_time_s)

    def failing(self, fail_on: str = "error") -> List[JobResult]:
        return [result for result in self.results if job_fails(result, fail_on)]


def _spec_payload(
    spec: JobSpec, timeout: Optional[float], log_level: Optional[int]
) -> Dict[str, Any]:
    return {
        "transducer_path": spec.transducer_path,
        "schema_path": spec.schema_path,
        "protect": list(spec.protect),
        "job_id": spec.job_id,
        "transducer_name": spec.transducer_name,
        "schema_name": spec.schema_name,
        "timeout": timeout,
        "log_level": log_level,
    }


def _failure_result(spec: JobSpec, verdict: str, message: str) -> JobResult:
    return JobResult(
        job_id=spec.job_id,
        transducer=spec.transducer_name,
        schema=spec.schema_name,
        protect=spec.protect,
        verdict=verdict,
        error=message,
    )


def _store_in_cache(
    cache: Optional[ResultCache], key: Optional[str], result: "JobResult"
) -> None:
    """Cache a freshly computed result (identically for parent-inline
    and worker-pool jobs); timeouts and cancellations are transient
    and never stored."""
    if cache is None or key is None or result.verdict in ("timeout", "cancelled"):
        return
    stored = result.to_dict()
    stored["cache_hit"] = False
    if result.observations:
        # Never cache the replayable state: a later hit must not
        # re-emit this run's log or spans.
        stored["observations"] = (
            obs.Snapshot.from_dict(result.observations)
            .without_replayable_state()
            .to_dict()
        )
    cache.put(key, stored)


def _inline_if_proven_safe(
    spec: JobSpec, log_level: Optional[int]
) -> Optional["JobResult"]:
    """Parent-side cheap-pass gate: when the dataflow passes prove the
    pair copy-free and order-safe (and no labels are protected), every
    expensive Theorem 4.11 procedure is guaranteed to short-circuit, so
    the job runs inline here instead of paying a pool round-trip.

    Returns ``None`` — run in a worker — for anything unproven or
    unloadable, so broken pairs keep their per-job error isolation.
    """
    if spec.protect:
        return None
    from ..cli import load_schema_ex, load_transducer_ex
    from ..lint.dataflow import analyze, log_skip, prefilter_enabled
    from ..schema.dtd import dtd_to_nta

    if not prefilter_enabled():
        return None
    try:
        transducer = load_transducer_ex(spec.transducer_path).transducer
        nta = dtd_to_nta(load_schema_ex(spec.schema_path).dtd)
        summary = analyze(transducer, nta)
    except Exception:
        return None
    if not (summary.copy_free and summary.order_safe):
        return None
    log_skip("corpus.pool_submit", "copy-degree+text-flow", job_id=spec.job_id)
    return analyze_pair(
        spec.transducer_path,
        spec.schema_path,
        spec.protect,
        job_id=spec.job_id,
        transducer_name=spec.transducer_name,
        schema_name=spec.schema_name,
        log_level=log_level,
    )


class _StatusWriter:
    """Writes the live status file (see :mod:`repro.corpus.telemetry`)
    each heartbeat tick — the surface ``python -m repro top`` polls."""

    def __init__(self, path: str, total: int, cache_hits: int, to_run: int) -> None:
        self.path = path
        self.total = total
        self.cache_hits = cache_hits
        self.to_run = to_run

    def tick(
        self,
        results: Sequence["JobResult"],
        done: int,
        workers: Sequence[Any] = (),
        queue_depth: int = 0,
        finished: bool = False,
    ) -> None:
        histogram = obs.Histogram()
        for result in results:
            if not result.cache_hit:
                histogram.observe(result.wall_time_s * 1000.0)
        payload: Dict[str, Any] = {
            "ts": time.time(),
            "pid": os.getpid(),
            "total": self.total,
            "cache_hits": self.cache_hits,
            "to_run": self.to_run,
            "done": done,
            "queue_depth": max(0, queue_depth),
            "verdicts": {k: v for k, v in sorted(_count_verdicts(results).items())},
            "workers": [
                state.to_dict() if hasattr(state, "to_dict") else dict(state)
                for state in workers
            ],
            "job_ms": histogram.summary() if histogram.count else None,
            "finished": finished,
        }
        try:
            telemetry.write_status_file(self.path, payload)
        except OSError:
            # A vanished directory or full disk must not fail the run.
            pass


def run_corpus(
    jobs: Sequence[JobSpec],
    *,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    engine_version: str = ENGINE_VERSION,
    progress: Optional[ProgressListener] = None,
    heartbeat: float = 1.0,
    stall_after: Optional[float] = None,
    status_file: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    cancel: Optional[Callable[[], bool]] = None,
    journal: Optional[Any] = None,
) -> RunSummary:
    """Execute all jobs — cached results resolve in the parent, the
    rest fan out over worker processes — and return the sorted summary
    (worst verdicts first).

    ``progress`` is the :class:`ProgressListener` told about the run
    (none by default).  ``heartbeat`` is the listener's tick period in
    seconds while workers are busy.

    ``stall_after`` and ``status_file`` enable the live telemetry
    sideband (see :mod:`repro.corpus.telemetry`): workers stream
    periodic in-flight state over a queue, a job silent past
    ``stall_after`` seconds gets a faulthandler stack dump folded into
    a structured WARNING event, and ``status_file`` is atomically
    rewritten each tick for ``python -m repro top``.  Both default off,
    in which case no telemetry machinery is started at all.

    ``pool`` is a shared :class:`WorkerPool` to run on instead of a
    private per-call executor; the pool is left running afterwards (the
    serve dispatcher's warm-pool path).  A shared pool has no in-worker
    telemetry sampler, so ``stall_after`` is ignored with it.

    ``cancel`` is polled between waves: once it returns true, every
    not-yet-started job is withdrawn as a ``cancelled`` result (never
    cached) and the engine returns as soon as the already-running jobs
    finish.

    ``journal`` is an optional :class:`repro.obs.Journal`: the run's
    begin, every completed job's verdict, and the final summary are
    appended as they happen (the crash-safe record ``batch --journal``
    and the serve dispatcher build on).
    """
    listener = progress if progress is not None else ProgressListener()
    if journal is not None:
        listener = _JournalTee(listener, journal)
    start = time.perf_counter()
    results: List[JobResult] = []
    pending: List[Tuple[JobSpec, Optional[str]]] = []
    hits = 0
    for spec in jobs:
        key = job_cache_key(spec, engine_version) if cache is not None else None
        if key is not None and cache is not None:
            payload = cache.get(key)
            if payload is not None:
                cached = JobResult.from_dict(payload)
                cached.cache_hit = True
                results.append(cached)
                hits += 1
                continue
        pending.append((spec, key))
    misses = len(pending)
    listener.begin(len(jobs), hits, misses)
    obs.info(
        "corpus.runner", "corpus run started",
        jobs=len(jobs), cache_hits=hits, to_run=misses,
    )
    status = (
        _StatusWriter(status_file, len(jobs), hits, misses)
        if status_file is not None
        else None
    )
    if status is not None:
        status.tick(results, done=0)

    log_level = None
    parent_recorder = obs.current()
    if parent_recorder is not None:
        log_level = parent_recorder.log_level

    # Parent-side cheap-pass gate: jobs the dataflow passes prove safe
    # run inline (their expensive procedures all short-circuit) instead
    # of being shipped to a worker.  Skipped entirely under a per-job
    # timeout — only the in-worker setitimer can enforce one.
    pooled: List[Tuple[JobSpec, Optional[str]]] = []
    prefiltered = 0
    if timeout is None:
        for spec, key in pending:
            if cancel is not None and cancel():
                pooled.append((spec, key))
                continue
            result = _inline_if_proven_safe(spec, log_level)
            if result is None:
                pooled.append((spec, key))
                continue
            _store_in_cache(cache, key, result)
            results.append(result)
            prefiltered += 1
            listener.job_done(result, prefiltered, misses)
    else:
        pooled = list(pending)

    workers = 1
    try:
        if pooled and cancel is not None and cancel():
            # Withdrawn before anything was submitted: every pending
            # job becomes a (never-cached) cancelled result.
            for spec, _key in pooled:
                results.append(
                    _failure_result(spec, "cancelled", "cancelled by request")
                )
            pooled = []
        if pooled:
            workers = pool.max_workers if pool is not None else (
                max_workers or min(os.cpu_count() or 1, 8)
            )
            workers = max(1, min(workers, len(pooled))) if pool is None else workers
            results.extend(
                _execute_pending(
                    pooled, workers, timeout, cache, listener, heartbeat,
                    done_offset=prefiltered, total=misses,
                    stall_after=stall_after, status=status,
                    pool=pool, cancel=cancel,
                )
            )
    finally:
        listener.finish()

    recorder = obs.current()
    if recorder is not None:
        for result in results:
            if result.observations:
                obs.Snapshot.from_dict(result.observations).merge_into(recorder)
            if not result.cache_hit:
                # Per-job latency distribution: the batch-level p50/p99
                # the dashboard summarizes.
                recorder.observe("corpus.job.ms", result.wall_time_s * 1000.0)
            # Per-job rollups: the batch's wall time and work, labeled
            # by the job that spent it (worker labeled counters merged
            # above keep their own rule/pass attribution).
            recorder.add(
                "corpus.job.wall_time_ms",
                round(result.wall_time_s * 1000.0, 3),
                job=result.job_id, verdict=result.verdict,
            )
            if result.cache_hit:
                recorder.add("corpus.job.cache_hits", 1, job=result.job_id)
        recorder.add("corpus.jobs.total", len(results))
        recorder.add("corpus.cache.hits", hits)
        recorder.add("corpus.cache.misses", misses)
        if prefiltered:
            recorder.add("dataflow.corpus.prefiltered", prefiltered)
        for verdict, count in _count_verdicts(results).items():
            if count:
                recorder.add("corpus.verdict.%s" % verdict, count,
                             verdict=verdict)

    results.sort(key=_sort_key)
    summary = RunSummary(
        results=results,
        cache_hits=hits,
        cache_misses=misses,
        wall_time_s=time.perf_counter() - start,
        analysis_time_s=sum(r.wall_time_s for r in results if not r.cache_hit),
        workers=workers,
        engine=engine_version,
    )
    obs.info(
        "corpus.runner", "corpus run finished",
        jobs=len(results), wall_time_s=round(summary.wall_time_s, 6),
        workers=workers, **{
            "verdict_%s" % verdict: count
            for verdict, count in summary.verdict_counts().items() if count
        },
    )
    if status is not None:
        status.tick(results, done=len(results), finished=True)
    if journal is not None:
        try:
            journal.append("run", {
                "phase": "finish",
                # the summary shape the HTML report's corpus section
                # and journal replay consume
                "summary": {
                    "jobs": len(results),
                    "verdicts": summary.verdict_counts(),
                    "cache": {"hits": hits, "misses": misses,
                              "hit_rate": round(summary.hit_rate(), 4)},
                    "wall_time_s": round(summary.wall_time_s, 6),
                    "workers": workers,
                },
            })
        except (OSError, ValueError):
            pass
    return summary


def _count_verdicts(results: Sequence[JobResult]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for result in results:
        counts[result.verdict] = counts.get(result.verdict, 0) + 1
    return counts


def _execute_pending(
    pending: Sequence[Tuple[JobSpec, Optional[str]]],
    workers: int,
    timeout: Optional[float],
    cache: Optional[ResultCache],
    listener: ProgressListener,
    heartbeat: float,
    done_offset: int = 0,
    total: Optional[int] = None,
    stall_after: Optional[float] = None,
    status: Optional[_StatusWriter] = None,
    pool: Optional[WorkerPool] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> List[JobResult]:
    """Fan the cache misses out over a process pool; every failure mode
    (worker exception, dead worker, engine-level hang) degrades to a
    structured per-job result.

    The wait loop wakes at least every ``heartbeat`` seconds so the
    listener can render live progress — done counts plus the slowest
    job currently observed running — even while nothing completes.
    With telemetry enabled (``stall_after``/``status``) the same loop
    also drains the worker sideband queue into live per-job state.
    """
    log_level = None
    recorder = obs.current()
    if recorder is not None:
        log_level = recorder.log_level
    results: List[JobResult] = []
    # The in-worker setitimer is the real per-job deadline; this outer
    # bound only catches a worker dying so hard it never reports (e.g.
    # the OOM killer), so it is deliberately loose.
    deadline: Optional[float] = None
    if timeout is not None:
        waves = (len(pending) + workers - 1) // workers
        deadline = time.monotonic() + timeout * waves + 30.0
    channel = None
    hub: Optional[telemetry.TelemetryHub] = None
    manager = None
    # The in-worker sampler initializer must be installed at pool
    # creation, so a shared (already-created) pool runs without it.
    if pool is None and (stall_after is not None or status is not None):
        import multiprocessing

        # A Manager queue proxy (unlike a raw mp.Queue) pickles through
        # the pool's initargs under both fork and spawn start methods.
        manager = multiprocessing.Manager()
        channel = manager.Queue()
        hub = telemetry.TelemetryHub(
            on_stall=lambda message: listener.message(
                "stall: %s silent %.1fs (pid %s) — stack dumped to log"
                % (message.get("job_id"), message.get("elapsed", 0.0),
                   message.get("pid"))
            )
        )
    if pool is not None:
        executor = pool.executor
    elif channel is not None:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=telemetry.init_worker,
            initargs=(channel, stall_after),
        )
    else:
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    futures = {
        executor.submit(_worker, _spec_payload(spec, timeout, log_level)): (spec, key)
        for spec, key in pending
    }
    remaining = set(futures)
    first_running: Dict[Any, float] = {}
    to_run = len(pending) if total is None else total
    hung = False
    try:
        while remaining:
            completed, remaining = concurrent.futures.wait(
                remaining,
                timeout=max(heartbeat, 0.05),
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            now = time.monotonic()
            for future in completed:
                spec, key = futures[future]
                try:
                    result = JobResult.from_dict(future.result())
                except Exception as error:  # worker died or result unpicklable
                    result = _failure_result(
                        spec, "error",
                        "worker failed: %s: %s" % (type(error).__name__, error),
                    )
                _store_in_cache(cache, key, result)
                results.append(result)
                if hub is not None:
                    hub.job_done(spec.job_id)
                listener.job_done(result, done_offset + len(results), to_run)
                if result.verdict != "safe":
                    obs.warning(
                        "corpus.runner", "job finished %s" % result.verdict,
                        job_id=result.job_id, verdict=result.verdict,
                        wall_time_s=round(result.wall_time_s, 6),
                        error=result.error,
                    )
            if cancel is not None and remaining and cancel():
                # Withdraw everything not yet running; jobs already in
                # a worker finish normally (their results still count).
                still = set()
                for future in remaining:
                    spec, _key = futures[future]
                    if future.cancel():
                        result = _failure_result(
                            spec, "cancelled", "cancelled by request"
                        )
                        results.append(result)
                        listener.job_done(
                            result, done_offset + len(results), to_run
                        )
                        obs.warning(
                            "corpus.runner", "job cancelled", job_id=spec.job_id
                        )
                    else:
                        still.add(future)
                remaining = still
            if hub is not None and channel is not None:
                hub.poll(channel)
                listener.worker_update(hub.in_flight())
                obs.sample("corpus.in_flight", len(hub.workers))
            if status is not None:
                running_count = sum(1 for f in remaining if f.running())
                status.tick(
                    results,
                    done=done_offset + len(results),
                    workers=hub.in_flight() if hub is not None else (),
                    queue_depth=len(remaining) - running_count,
                    finished=False,
                )
            if remaining:
                in_flight = sorted(
                    (
                        (futures[future][0].job_id,
                         now - first_running.setdefault(future, now))
                        for future in remaining
                        if future.running()
                    ),
                    key=lambda item: -item[1],
                )
                listener.heartbeat(done_offset + len(results), to_run, in_flight)
                if not completed and in_flight:
                    job_id, elapsed = in_flight[0]
                    obs.debug(
                        "corpus.runner", "heartbeat",
                        done=len(results), to_run=to_run,
                        slowest_in_flight=job_id,
                        slowest_elapsed_s=round(elapsed, 3),
                    )
                if deadline is not None and now > deadline:
                    # A worker died without reporting; salvage what
                    # finished and abandon the pool rather than joining
                    # hung processes.
                    hung = True
                    for future in remaining:
                        spec, _key = futures[future]
                        future.cancel()
                        results.append(
                            _failure_result(
                                spec,
                                "timeout",
                                "job never reported within the engine "
                                "backstop deadline",
                            )
                        )
                        obs.error(
                            "corpus.runner", "backstop deadline fired",
                            job_id=spec.job_id,
                        )
                    break
    finally:
        if pool is not None:
            # A shared pool stays warm for the next request; it is only
            # torn down by its owner (WorkerPool.shutdown).  Record the
            # worker pids this wave used for the spawn ledger.
            pool.note_spawned()
            pool.reset_if_broken()
        else:
            executor.shutdown(wait=not hung, cancel_futures=True)
        if hub is not None and channel is not None:
            # One last drain so a stall pushed during the final wave
            # still reaches the log before the Manager goes away.
            try:
                hub.poll(channel)
            except Exception:
                pass
        if manager is not None:
            manager.shutdown()
    return results
