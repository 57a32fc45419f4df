"""Batch corpus analysis: many (transducer, schema) pairs, one run.

The paper's PTIME result (Theorem 4.11) makes the per-pair decision
cheap enough to run across whole fleets of transformations, and §7's
maximal safe sub-schema is computed per pair — so the natural
production workload is the *batch audit*: a library of transducers
against a library of schemas, re-checked on every change.  This
package is that engine:

* :mod:`repro.corpus.manifest` — job discovery from a ``manifest.txt``
  or by the ``*.tdx`` x ``*.schema`` directory convention;
* :mod:`repro.corpus.runner` — ``ProcessPoolExecutor`` execution with
  in-worker per-job timeouts and failure isolation (one crashing or
  hanging pair is reported, never kills the run), per-job
  :class:`repro.obs.Snapshot` counters shipped back to the parent, and
  one record sink (``on_event``) for progress, status and journaling;
* :mod:`repro.corpus.telemetry` — the status-file sink ``repro top``
  polls;
* :mod:`repro.corpus.cache` — a content-addressed result store
  (``.repro-cache/``, SHA-256 of the job, the bytes of its two files
  and the engine version) so re-runs only recompute changed jobs;
* :mod:`repro.corpus.report` — text / markdown / JSONL reports, worst
  verdicts first, with the cache + timing footer.

Library use::

    from repro.corpus import discover_jobs, open_cache, run_corpus, render

    jobs = discover_jobs("corpora/nightly")
    summary = run_corpus(jobs, timeout=30.0, cache=open_cache("corpora/nightly"))
    print(render(summary, "text"))

CLI: ``python -m repro batch CORPUS_DIR`` (see :mod:`repro.cli`).
"""

import os
from typing import Optional

from .cache import (
    DEFAULT_CACHE_DIRNAME,
    ENGINE_VERSION,
    ResultCache,
    job_cache_key,
)
from .manifest import (
    MANIFEST_NAMES,
    CorpusError,
    JobSpec,
    discover_jobs,
    filter_shard,
    parse_manifest,
    parse_shard,
    shard_index,
)
from .report import (
    JOB_OBJECT_KEYS,
    JOB_OBJECT_VERSION,
    JOB_OBJECT_VOLATILE_KEYS,
    cache_footer,
    job_object,
    job_signature,
    render,
    render_jsonl,
    render_markdown,
    render_text,
    summary_dict,
    validate_job_object,
)
from .runner import (
    VERDICT_RANK,
    EventSink,
    JobResult,
    ProgressReporter,
    RunSummary,
    WorkerPool,
    analyze_pair,
    job_fails,
    journal_sink,
    run_corpus,
)

__all__ = [
    "CorpusError",
    "JobSpec",
    "EventSink",
    "JobResult",
    "ProgressReporter",
    "RunSummary",
    "WorkerPool",
    "MANIFEST_NAMES",
    "VERDICT_RANK",
    "ENGINE_VERSION",
    "DEFAULT_CACHE_DIRNAME",
    "JOB_OBJECT_KEYS",
    "JOB_OBJECT_VERSION",
    "JOB_OBJECT_VOLATILE_KEYS",
    "ResultCache",
    "parse_manifest",
    "discover_jobs",
    "parse_shard",
    "shard_index",
    "filter_shard",
    "analyze_pair",
    "run_corpus",
    "journal_sink",
    "job_fails",
    "job_cache_key",
    "job_object",
    "job_signature",
    "validate_job_object",
    "cache_footer",
    "open_cache",
    "render",
    "render_text",
    "render_markdown",
    "render_jsonl",
    "summary_dict",
]


def open_cache(corpus_dir: str, cache_dir: Optional[str] = None) -> ResultCache:
    """The corpus's result cache (``CORPUS_DIR/.repro-cache`` unless
    overridden)."""
    return ResultCache(cache_dir or os.path.join(corpus_dir, DEFAULT_CACHE_DIRNAME))
