"""Command-line interface: validate, transform, and check documents.

The input formats (``.schema``, ``.tdx``, XML) are described, and
read, in :mod:`repro.formats`.

Commands::

    python -m repro validate  SCHEMA DOCUMENT.xml
    python -m repro transform TRANSDUCER DOCUMENT.xml
    python -m repro check     TRANSDUCER SCHEMA [--protect LABEL ...]
                              [--format text|json]
                              [--stats] [--trace FILE.json]
                              [--log FILE.jsonl] [--log-level LEVEL]
    python -m repro lint      TRANSDUCER SCHEMA [--protect LABEL ...]
                              [--format text|json] [--fail-on SEVERITY]
                              [--passes P1,P2] [--no-prefilter]
                              [--stats] [--trace FILE.json]
                              [--log FILE.jsonl] [--log-level LEVEL]
    python -m repro subschema TRANSDUCER SCHEMA [--protect LABEL ...]
    python -m repro profile   TRANSDUCER SCHEMA [--protect LABEL ...]
                              [--trace FILE.json]
                              [--log FILE.jsonl] [--log-level LEVEL]
    python -m repro batch     CORPUS_DIR [--jobs N] [--timeout S]
                              [--cache-dir D] [--no-cache] [--shard i/N]
                              [--format text|json|markdown]
                              [--fail-on SEVERITY] [--no-prefilter]
                              [--output FILE]
                              [--progress | --no-progress]
                              [--stall-after S] [--status-file FILE]
                              [--stats] [--trace FILE.json]
                              [--log FILE.jsonl] [--log-level LEVEL]
                              [--metrics FILE] [--journal DIR]
    python -m repro serve     (--socket PATH | --port N) [--jobs N]
                              [--queue-limit N] [--timeout S]
                              [--cache-dir D] [--status-file FILE]
                              [--metrics FILE] [--drain-timeout S]
                              [--journal-dir DIR]
    python -m repro submit    (--socket PATH | --port N)
                              CORPUS_DIR | TRANSDUCER SCHEMA
                              [--protect LABEL ...] [--shards N]
                              [--timeout S] [--no-cache]
                              [--format text|events]
    python -m repro top       [CORPUS_DIR|STATUS_FILE] [--interval S]
                              [--once]
    python -m repro explain   TRANSDUCER SCHEMA [--protect LABEL ...]
                              [--top N] [--format text|json|markdown]
                              [--output FILE]
    python -m repro trace-diff A.json B.json
                              [--format text|json|markdown] [--limit N]
                              [--output FILE]
    python -m repro report    [--trace FILE.json] [--log FILE.jsonl]
                              [--corpus FILE.jsonl]
                              [--baseline-trace FILE.json]
                              [--journal DIR]
                              [--title T] [--output FILE.html]
    python -m repro journal   ls JOURNAL
    python -m repro journal   tail JOURNAL [--lines N] [-f]
                              [--interval S]
    python -m repro journal   show JOURNAL REQUEST_ID
    python -m repro journal   replay JOURNAL [--trace FILE.json]
                              [--metrics FILE] [--html FILE.html]
                              [--title T]

``check`` prints the verdict (copying / rearranging / protected-label
deletions), cites the responsible lint diagnostic for every unsafe
verdict, and, when unsafe, prints the smallest counter-example document
as XML; with ``--format json`` it instead emits the structured job
object of :func:`repro.corpus.analyze_pair` — the same schema a corpus
job produces.  ``lint`` runs the full :mod:`repro.lint` diagnostics
engine and renders coded findings (TP1xx structural, TP2xx schema,
TP3xx preservation, TP4xx §7 safety) as text or JSON.  ``profile`` runs
the full Theorem 4.11 decision under :mod:`repro.obs` instrumentation
and prints the span tree (phase wall times, automaton sizes, counters).

``batch`` audits a whole corpus (see :mod:`repro.corpus`): jobs come
from ``CORPUS_DIR/manifest.txt`` or the ``*.tdx`` x ``*.schema``
directory convention, run in parallel worker processes with per-job
timeouts and failure isolation, and results are cached under
``CORPUS_DIR/.repro-cache``, keyed on the job and the bytes of its two
files (see :mod:`repro.corpus.cache`), so re-runs only recompute jobs
whose files changed.  ``--format json`` streams JSONL (one job object per
line plus a summary trailer); ``text``/``markdown`` render worst
verdicts first with a cache/timing footer.  ``--shard i/N`` keeps only
this process's deterministic slice of the corpus (SHA-256 of the job
id modulo N — see :mod:`repro.corpus.manifest`), so N independent
``batch`` invocations partition one corpus with no coordination and
their verdict sets union to the unsharded run's.

``serve`` runs the resident audit daemon (see :mod:`repro.serve`):
one warm worker pool and one hot result cache shared across requests,
a bounded admission queue with explicit ``busy`` backpressure, per-
request trace capture, and both the NDJSON and local-HTTP transports
on a unix socket or 127.0.0.1 port.  ``submit`` is the matching
client: it streams the server's per-job events — ``--format events``
prints the raw JSONL (LogEvent-shaped, appendable to a ``--log``
file), ``--format text`` renders the human lines — and exits 0 on an
all-clear, 1 when jobs fail, 2 on bad input or an unreachable server,
3 when the server answers ``busy``.

``journal`` inspects the crash-safe write-ahead journal written by
``serve --journal-dir`` / ``batch --journal`` (see
:mod:`repro.obs.journal`): ``ls`` lists segments, ``tail`` prints the
newest records (``-f`` follows), ``show`` filters one request's
records, and ``replay`` reconstructs a Chrome trace, the HTML report,
and an OpenMetrics snapshot from the journal alone — the postmortem
path for a process that is already gone.

Observability flags, shared across commands: ``--stats`` prints the
recorded span tree and counters to stderr; ``--trace FILE.json``
writes a Chrome ``trace_event`` file (open in ``chrome://tracing`` or
Perfetto); ``--log FILE.jsonl`` writes the span-correlated structured
event log (``--log-level`` sets the buffering threshold) — each line's
``span_id`` joins against the trace file's ``args.id``, including
events emitted inside ``batch`` worker processes; ``--metrics FILE``
writes the run's counters, gauges and latency histograms as
Prometheus/OpenMetrics text exposition.  ``report``
bundles a trace, a log, and a corpus JSONL report into one
dependency-free HTML file for CI artifacts.

``top`` is the live monitoring surface over a running ``batch``: the
engine rewrites a small status JSON (``CORPUS_DIR/.repro-status.json``
by default) every heartbeat tick, and ``top`` polls it to render the
in-flight jobs (job, elapsed, stalled), queue depth, cache hits,
verdict counts, and the p50/p99 job latency.  ``batch --stall-after
S`` arms the stall watchdog: a job still running after ``S`` seconds
gets a ``faulthandler`` stack dump written inside the worker and
folded into the ``--log`` JSONL as a structured WARNING.

``explain`` answers *where the states go*: it runs the full pair
analysis and folds the labeled counter registry (per-rule product
states, per-label inverse-type vectors, per-pass dataflow work; see
:mod:`repro.obs.attr`) into hot-rule tables with coverage shares.
``trace-diff`` answers *what changed between two runs*: it aligns two
runs — any two of a Chrome ``--trace`` file, a Snapshot document (the
serve ``trace`` op's ``fields.snapshot``), a journal directory or one
journal segment — by span name-path and counter name, and reports
duration, counter, and attribution deltas worst-first (see
:mod:`repro.obs.diff`).  ``trace-diff``, ``report``, ``journal`` and
``explain`` read their inputs through one sniffer
(:func:`repro.obs.sniff_artifact`), so any other file the repo writes
is rejected with exit 2 as ``PATH: this is ...; expected ...``.

Only the actual products (XML, JSON, reports) go to stdout; error
messages and advisory chatter go to stderr, so stdout stays pipeable.

Exit status, for CI use:

====  ==========================================================
0     success (``check``: safe; ``lint``: nothing at/above the
      ``--fail-on`` threshold; ``validate``: document valid;
      ``batch``: every job safe and clean at the threshold;
      ``explain`` / ``trace-diff``: report rendered)
1     analysis verdict failed (``check``: unsafe; ``lint``:
      findings at/above threshold; ``validate``: invalid document;
      ``subschema``: empty safe sub-schema; ``batch``: some job
      unsafe, errored, timed out, or with findings at/above the
      threshold)
2     bad input (missing or unreadable files, a directory where a
      file belongs, reported as ``PATH: ...``; malformed or non-UTF-8
      schema, transducer or XML files, reported as ``PATH:LINE``;
      an artifact of the wrong kind; malformed corpus/manifest,
      ``FormatError``; ``submit``: also an
      unreachable server or a server-side discovery failure)
3     ``submit`` only: the server refused admission — the bounded
      queue is at its high-water mark (HTTP's 429); retry later
====  ==========================================================

Note the ``batch`` asymmetry, by design: a malformed *corpus* (missing
directory, bad manifest line, nothing to do) is exit 2, but a malformed
*pair inside* a healthy corpus is an isolated per-job ``error`` result
and exit 1 — one broken file never blocks auditing the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import obs
from .analysis import (
    counter_example,
    deletes_protected_text,
    diagnose,
    is_copying,
    is_rearranging,
    maximal_safe_subschema,
)
from .core.topdown import TopDownTransducer
from .formats import (
    FormatError,
    LoadedSchema,
    LoadedTransducer,
    load_document,
    load_schema,
    load_schema_ex,
    load_transducer,
    load_transducer_ex,
    source_info,
)
from .lint import SEVERITIES, render_json, render_text, severity_order
from .lint.dataflow import pass_names, prefilter_disabled
from .schema.dtd import DTD, dtd_to_nta
from .trees.parser import serialize_tree
from .trees.xmlio import tree_to_xml

__all__ = [
    "main",
    "load_schema",
    "load_schema_ex",
    "load_transducer",
    "load_transducer_ex",
    "LoadedSchema",
    "LoadedTransducer",
    "CliError",
]


#: The one input error of every command (exit 2): a malformed file is a
#: :class:`repro.formats.FormatError`, and so is a bad flag or corpus.
CliError = FormatError


def _validate_fail_on(value: str) -> int:
    """The severity threshold of ``--fail-on``, rejecting unknown
    severities with the valid set (a silent typo would otherwise mean
    the command never fails)."""
    try:
        return severity_order(value)
    except ValueError:
        raise CliError(
            "unknown --fail-on severity %r; valid severities: %s"
            % (value, ", ".join(SEVERITIES))
        ) from None


def _parse_passes(value: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse ``--passes a,b,c`` into a tuple, rejecting unknown pass
    names with the valid set."""
    if value is None:
        return None
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    if not names:
        raise CliError(
            "--passes needs at least one pass name; valid passes: %s"
            % ", ".join(pass_names())
        )
    unknown = sorted(set(names) - set(pass_names()))
    if unknown:
        raise CliError(
            "unknown dataflow pass %r; valid passes: %s"
            % (unknown[0], ", ".join(pass_names()))
        )
    return names


def _cmd_validate(args: argparse.Namespace) -> int:
    dtd = load_schema(args.schema)
    document = load_document(args.document)
    reason = dtd.invalidity_reason(document)
    if reason is None:
        print("valid")
        return 0
    print("invalid: %s" % reason)
    return 1


def _cmd_transform(args: argparse.Namespace) -> int:
    transducer = load_transducer(args.transducer)
    document = load_document(args.document)
    result = transducer.apply(document)
    if len(result) == 1:
        sys.stdout.write(tree_to_xml(result[0]))
    else:
        # Advisory chatter goes to stderr; stdout stays pipeable XML.
        print(
            "<!-- transduction produced a hedge of %d trees -->" % len(result),
            file=sys.stderr,
        )
        for t in result:
            sys.stdout.write(tree_to_xml(t))
    return 0


def _wants_observation(args: argparse.Namespace) -> bool:
    return (
        bool(getattr(args, "trace", None))
        or bool(getattr(args, "stats", False))
        or bool(getattr(args, "log", None))
        or bool(getattr(args, "metrics", None))
    )


def _event_level(args: argparse.Namespace) -> Optional[int]:
    """The recorder's event-buffering level: events buffer only when a
    sink exists — ``--log`` writes them as JSONL, ``--trace`` embeds
    them as instant markers on the span timeline.  ``None`` keeps
    emission at the two-attribute-check no-op."""
    if getattr(args, "log", None) or getattr(args, "trace", None):
        return obs.LEVELS[getattr(args, "log_level", None) or "info"]
    return None


def _write_metrics(recorder: obs.Recorder, path: str) -> None:
    """Write the run's registries as OpenMetrics text exposition."""
    text = obs.render_openmetrics(recorder.counters, recorder.gauges, recorder.histograms)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print("wrote OpenMetrics exposition to %s" % path, file=sys.stderr)


def _finish_observation(recorder: Optional[obs.Recorder], args: argparse.Namespace) -> None:
    """Emit the recorded run: log JSONL, trace file, metrics exposition,
    stats to stderr."""
    if recorder is None:
        return
    if getattr(args, "log", None):
        count = obs.write_log_jsonl(recorder, args.log)
        print("wrote %d log events to %s" % (count, args.log), file=sys.stderr)
    if getattr(args, "trace", None):
        obs.write_chrome_trace(recorder, args.trace)
        print("wrote Chrome trace to %s" % args.trace, file=sys.stderr)
    if getattr(args, "metrics", None):
        _write_metrics(recorder, args.metrics)
    if getattr(args, "stats", False):
        sys.stderr.write(obs.render_text(recorder))


def _cmd_check(args: argparse.Namespace) -> int:
    loaded_transducer = load_transducer_ex(args.transducer)
    loaded_schema = load_schema_ex(args.schema)
    transducer, dtd = loaded_transducer.transducer, loaded_schema.dtd
    with contextlib.ExitStack() as stack:
        recorder: Optional[obs.Recorder] = None
        if _wants_observation(args):
            recorder = stack.enter_context(
                obs.recording(log_level=_event_level(args))
            )
            stack.enter_context(obs.span("check.run"))
        if getattr(args, "format", "text") == "json":
            status = _run_check_json(args, recorder)
        else:
            status = _run_check(args, transducer, dtd, loaded_transducer, loaded_schema)
    _finish_observation(recorder, args)
    return status


def _run_check_json(args: argparse.Namespace, recorder: Optional[obs.Recorder]) -> int:
    """``check --format json``: one corpus-job object on stdout (the
    inputs were already loaded once, so malformed files exited 2
    before reaching here)."""
    import json

    from .corpus import analyze_pair

    result = analyze_pair(
        args.transducer, args.schema, args.protect or (),
        log_level=_event_level(args),
    )
    if recorder is not None and result.observations:
        obs.Snapshot.from_dict(result.observations).merge_into(recorder)
    sys.stdout.write(json.dumps(result.to_dict(), indent=2, sort_keys=False) + "\n")
    return 0 if result.verdict == "safe" else 1


def _run_check(
    args: argparse.Namespace,
    transducer: TopDownTransducer,
    dtd: DTD,
    loaded_transducer: LoadedTransducer,
    loaded_schema: LoadedSchema,
) -> int:
    copying = is_copying(transducer, dtd)
    rearranging = is_rearranging(transducer, dtd)
    print("copying over the schema:     %s" % ("YES" if copying else "no"))
    print("rearranging over the schema: %s" % ("YES" if rearranging else "no"))
    safe = not copying and not rearranging
    print("text-preserving:             %s" % ("yes" if safe else "NO"))
    if not safe:
        witness = counter_example(transducer, dtd)
        if witness is not None:
            print("smallest counter-example document:")
            sys.stdout.write(tree_to_xml(witness))
    for label in args.protect or ():
        deletes = deletes_protected_text(transducer, dtd, label)
        print(
            "text below <%s>:             %s"
            % (label, "DELETED on some document" if deletes else "always kept")
        )
        safe = safe and not deletes
    if not safe:
        # Cite the responsible diagnostics for every unsafe verdict.
        diagnostics = diagnose(
            transducer,
            dtd,
            args.protect or (),
            sources=source_info(
                args.transducer, loaded_transducer, args.schema, loaded_schema
            ),
            codes=("TP301", "TP302", "TP401"),
            compute_subschema=False,
        )
        if diagnostics:
            print("diagnostics (see 'python -m repro lint' for the full report):")
            for diagnostic in diagnostics:
                where = " [%s]" % diagnostic.location if diagnostic.location else ""
                print("  %s%s: %s" % (diagnostic.code, where, diagnostic.message))
    return 0 if safe else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    threshold = _validate_fail_on(args.fail_on)
    passes = _parse_passes(args.passes)
    loaded_transducer = load_transducer_ex(args.transducer)
    loaded_schema = load_schema_ex(args.schema)
    # Always record: the engine's memo hit/miss counters feed the JSON
    # report, and --stats/--trace/--log reuse the same run.
    switch = prefilter_disabled() if args.no_prefilter else contextlib.nullcontext()
    with obs.recording(log_level=_event_level(args)) as recorder, switch:
        diagnostics = diagnose(
            loaded_transducer.transducer,
            loaded_schema.dtd,
            args.protect or (),
            sources=source_info(
                args.transducer, loaded_transducer, args.schema, loaded_schema
            ),
            passes=passes,
        )
    if args.format == "json":
        stats = {
            "memo_hits": int(recorder.counters.get("lint.memo.hits", 0)),
            "memo_misses": int(recorder.counters.get("lint.memo.misses", 0)),
        }
        stats.update(
            (name, int(value))
            for name, value in sorted(recorder.counters.items())
            if name.startswith("dataflow.")
        )
        # Key-sorted so the JSON is byte-stable across runs and Python
        # hash seeds (golden files diff cleanly).
        stats = {name: stats[name] for name in sorted(stats)}
        sys.stdout.write(render_json(diagnostics, stats=stats) + "\n")
    else:
        sys.stdout.write(render_text(diagnostics))
    _finish_observation(recorder if _wants_observation(args) else None, args)
    failed = any(severity_order(d.severity) >= threshold for d in diagnostics)
    return 1 if failed else 0


def _cmd_subschema(args: argparse.Namespace) -> int:
    transducer = load_transducer(args.transducer)
    dtd = load_schema(args.schema)
    safe = maximal_safe_subschema(transducer, dtd, protected_labels=args.protect or ())
    if args.output:
        from .automata.io import nta_to_json

        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(nta_to_json(safe))
        print("wrote %s" % args.output)
    if safe.is_empty():
        print("the maximal safe sub-schema is EMPTY")
        return 1
    print(
        "maximal safe sub-schema: NTA with %d states (size %d)"
        % (len(safe.states), safe.size)
    )
    witness = safe.witness()
    if witness is not None:
        print("smallest safe document: %s" % serialize_tree(witness))
    from .automata.enumerate import enumerate_trees

    shown = 0
    for t in enumerate_trees(safe, 8, max_count=args.examples):
        print("  %s" % serialize_tree(t))
        shown += 1
    if not shown:
        print("  (no members within 8 nodes)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    transducer = load_transducer(args.transducer)
    dtd = load_schema(args.schema)
    nta = dtd_to_nta(dtd)
    universe = set(nta.alphabet) | set(transducer.alphabet)
    from .automata.nta import intersect_nta
    from .core.topdown_analysis import (
        copying_nfa,
        path_automaton,
        rearranging_nta,
        transducer_path_automaton,
    )

    wall_start = time.perf_counter_ns()
    with obs.recording(log_level=_event_level(args)) as recorder:
        # Explicit top-level phases over the Theorem 4.11 pipeline; the
        # library's own spans nest beneath them.
        with obs.span("phase.path_automata") as sp:
            schema_paths = path_automaton(nta)
            kept_paths = transducer_path_automaton(transducer)
            sp.set("schema_path_states", len(schema_paths.states))
            sp.set("transducer_path_states", len(kept_paths.states))
        with obs.span("phase.product") as sp:
            copying_product = copying_nfa(transducer, nta)
            rearranging_product = intersect_nta(
                rearranging_nta(transducer, universe), nta
            )
            sp.set("copying_states", len(copying_product.states))
            sp.set("rearranging_states", len(rearranging_product.states))
        with obs.span("phase.emptiness") as sp:
            copying = not copying_product.is_empty()
            rearranging = not rearranging_product.is_empty()
            sp.set("copying", copying)
            sp.set("rearranging", rearranging)
            obs.info(
                "profile",
                "pipeline decided",
                copying=copying,
                rearranging=rearranging,
                text_preserving=not (copying or rearranging),
            )
        for label in args.protect or ():
            with obs.span("phase.protection") as sp:
                sp.set("label", label)
                sp.set("deletes", deletes_protected_text(transducer, dtd, label))
    wall_ns = time.perf_counter_ns() - wall_start
    sys.stdout.write(obs.render_text(recorder))
    covered_ns = sum(
        root.duration_ns for root in recorder.spans if root.name.startswith("phase.")
    )
    print("")
    print(
        "phase coverage: %.1f%% of %.3f ms total wall time"
        % (100.0 * covered_ns / wall_ns if wall_ns else 100.0, wall_ns / 1e6)
    )
    print(
        "verdict: copying=%s rearranging=%s text-preserving=%s"
        % (copying, rearranging, not copying and not rearranging)
    )
    if args.log:
        count = obs.write_log_jsonl(recorder, args.log)
        print("wrote %d log events to %s" % (count, args.log), file=sys.stderr)
    if args.trace:
        obs.write_chrome_trace(recorder, args.trace)
        print("wrote Chrome trace to %s" % args.trace, file=sys.stderr)
    if getattr(args, "metrics", None):
        _write_metrics(recorder, args.metrics)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from . import corpus

    _validate_fail_on(args.fail_on)
    if args.jobs is not None and args.jobs < 1:
        raise CliError("--jobs must be at least 1, got %d" % args.jobs)
    if args.timeout is not None and args.timeout <= 0:
        raise CliError("--timeout must be positive, got %g" % args.timeout)
    jobs = corpus.discover_jobs(args.corpus_dir)
    if args.shard is not None:
        index, count = corpus.parse_shard(args.shard)
        total = len(jobs)
        jobs = corpus.filter_shard(jobs, index, count)
        print(
            "shard %d/%d: %d of %d jobs" % (index, count, len(jobs), total),
            file=sys.stderr,
        )
    cache = None if args.no_cache else corpus.open_cache(args.corpus_dir, args.cache_dir)
    if args.stall_after is not None and args.stall_after <= 0:
        raise CliError(
            "--stall-after must be positive, got %g" % args.stall_after
        )
    from .corpus.telemetry import STATUS_BASENAME, StatusFile

    # The run's records fan out to three sinks: live TTY progress on
    # stderr (by default automatically silent when stderr or stdout is
    # piped, so `batch --format json > out.jsonl` stays clean —
    # --progress/--no-progress force it either way), the status file
    # `top` polls, and with --journal the crash-safe journal.
    reporter = corpus.ProgressReporter(live=args.progress)
    sinks: List[corpus.EventSink] = [reporter, StatusFile(
        args.status_file or os.path.join(args.corpus_dir, STATUS_BASENAME)
    )]
    journal = None
    if args.journal:
        from .obs.journal import Journal

        # Open until the run's snapshot is journaled; an uncaught
        # exception before then leaves a ``crash`` record.
        journal = Journal(args.journal)
        sinks.append(corpus.journal_sink(journal))

    def on_event(type: str, data: Dict[str, Any]) -> None:
        for sink in sinks:
            sink(type, data)

    with contextlib.ExitStack() as stack:
        # An interrupted run leaves no half-drawn progress line.
        stack.callback(reporter.clear)
        if args.no_prefilter:
            # The pool workers start inside the block and inherit it.
            stack.enter_context(prefilter_disabled())
        recorder: Optional[obs.Recorder] = None
        if _wants_observation(args) or journal is not None:
            recorder = stack.enter_context(
                obs.recording(log_level=_event_level(args))
            )
            # One root span anchoring the run: worker span forests graft
            # beneath it, so every --log event — parent- or worker-side —
            # resolves to a span in the --trace file.
            stack.enter_context(obs.span("batch.run"))
        summary = corpus.run_corpus(
            jobs,
            max_workers=args.jobs,
            timeout=args.timeout,
            cache=cache,
            on_event=on_event,
            stall_after=args.stall_after,
        )
    if journal is not None:
        # The full run capture (spans now closed), journaled last so
        # `journal replay` reconstructs the trace/metrics/report
        # offline from the segments alone.
        try:
            if recorder is not None:
                journal.append_snapshot(obs.Snapshot.from_recorder(recorder))
        finally:
            journal.close()
    rendered = corpus.render(summary, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print("wrote %s" % args.output, file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    _finish_observation(recorder, args)
    return 1 if summary.failing(args.fail_on) else 0


def _require_one_endpoint(args: argparse.Namespace) -> None:
    if (args.socket is None) == (args.port is None):
        raise CliError("exactly one of --socket PATH or --port N is required")
    if args.port is not None and not 0 < args.port < 65536:
        raise CliError("--port must be in 1..65535, got %d" % args.port)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeOptions, run_serve

    _require_one_endpoint(args)
    if args.jobs is not None and args.jobs < 1:
        raise CliError("--jobs must be at least 1, got %d" % args.jobs)
    if args.queue_limit < 0:
        raise CliError("--queue-limit must be >= 0, got %d" % args.queue_limit)
    if args.timeout is not None and args.timeout <= 0:
        raise CliError("--timeout must be positive, got %g" % args.timeout)
    if args.drain_timeout < 0:
        raise CliError(
            "--drain-timeout must be >= 0, got %g" % args.drain_timeout
        )
    from .corpus.telemetry import STATUS_BASENAME

    options = ServeOptions(
        socket_path=args.socket,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
        status_file=args.status_file or STATUS_BASENAME,
        metrics=args.metrics,
        drain_timeout=args.drain_timeout,
        journal_dir=args.journal_dir,
    )
    return run_serve(options)


def _submit_payload(args: argparse.Namespace) -> Dict[str, Any]:
    """The submit request object from the CLI's positional target(s):
    one argument = a corpus directory, two = a (transducer, schema)
    pair."""
    payload: Dict[str, Any] = {}
    if len(args.target) == 1:
        payload["corpus_dir"] = os.path.abspath(args.target[0])
    elif len(args.target) == 2:
        payload["transducer"] = os.path.abspath(args.target[0])
        payload["schema"] = os.path.abspath(args.target[1])
        if args.protect:
            payload["protect"] = list(args.protect)
    else:
        raise CliError(
            "submit takes CORPUS_DIR or TRANSDUCER SCHEMA, got %d arguments"
            % len(args.target)
        )
    if args.shards < 1:
        raise CliError("--shards must be at least 1, got %d" % args.shards)
    if args.shards > 1:
        payload["shards"] = args.shards
    if args.timeout is not None:
        if args.timeout <= 0:
            raise CliError("--timeout must be positive, got %g" % args.timeout)
        payload["timeout"] = args.timeout
    if args.no_cache:
        payload["no_cache"] = True
    return payload


def _render_submit_event(payload: Dict[str, Any]) -> Optional[str]:
    """The ``--format text`` line for one stream event (None: silent)."""
    fields = payload.get("fields", {})
    message = payload.get("message")
    if message == "request accepted":
        return "accepted %s (%s)" % (
            fields.get("request_id"), fields.get("target"),
        )
    if message == "run started":
        line = "%s jobs" % fields.get("jobs")
        if fields.get("shards", 1) > 1:
            line += " across %s shards" % fields["shards"]
        return line
    if message == "job finished":
        job = fields.get("job", {})
        return "%-9s %s  [%s, %.3fs]" % (
            job.get("verdict", "?"),
            job.get("job_id", "?"),
            "hit" if job.get("cache_hit") else "miss",
            float(job.get("wall_time_s", 0.0)),
        )
    if message in ("request finished", "request cancelled"):
        footer = fields.get("cache_footer", "")
        pool = fields.get("pool", {})
        lines = [
            "%s: %d failing" % (message, int(fields.get("failing", 0))),
            footer,
            "pool: %s alive, %s spawned total"
            % (pool.get("alive", "?"), pool.get("spawned_total", "?")),
        ]
        return "\n".join(line for line in lines if line)
    if message == "request failed":
        return None  # surfaced via the exit path below
    return None


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeBusy, ServeClient, is_terminal

    _require_one_endpoint(args)
    payload = _submit_payload(args)
    client = ServeClient(socket_path=args.socket, port=args.port, timeout=None)
    terminal: Optional[Dict[str, Any]] = None
    try:
        for event in client.submit(payload):
            if args.format == "events":
                sys.stdout.write(json.dumps(event, sort_keys=False) + "\n")
                sys.stdout.flush()
            else:
                line = _render_submit_event(event)
                if line:
                    print(line)
            if is_terminal(event):
                terminal = event
    except ServeBusy as error:
        print("busy: %s" % error, file=sys.stderr)
        return 3
    except (OSError, ValueError) as error:
        raise CliError(
            "cannot talk to the server at %s: %s"
            % (args.socket or "127.0.0.1:%s" % args.port, error)
        ) from None
    if terminal is None:
        raise CliError("server closed the stream without a terminal event")
    fields = terminal.get("fields", {})
    if terminal.get("message") == "request failed":
        raise CliError(fields.get("error", "request failed"))
    if terminal.get("message") == "request cancelled":
        print("request cancelled", file=sys.stderr)
        return 1
    return 1 if int(fields.get("failing", 0)) else 0


def _write_or_print(rendered: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print("wrote %s" % output, file=sys.stderr)
    else:
        sys.stdout.write(rendered)


def _cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: run the full pair analysis and attribute the work
    counters to the rules/sites responsible (see :mod:`repro.obs.attr`)."""
    from .corpus import analyze_pair
    from .obs.export import ARTIFACTS

    # Load up-front so malformed inputs exit 2 with a parse error
    # instead of surfacing as a job-level 'error' verdict — and name
    # the kind when a file this program wrote lands here by mistake.
    for path, wanted in ((args.transducer, "a transducer (.tdx)"),
                         (args.schema, "a schema (.schema)")):
        try:
            kind = obs.sniff_artifact(path)
        except ValueError as error:
            raise CliError(str(error)) from None
        if kind is not None:
            raise CliError("%s: this is %s; expected %s"
                           % (path, ARTIFACTS[kind], wanted))
    load_transducer_ex(args.transducer)
    load_schema_ex(args.schema)
    result = analyze_pair(args.transducer, args.schema, args.protect or ())
    if result.verdict == "error":
        raise CliError("analysis failed: %s" % (result.error or "unknown error"))
    if not result.observations:
        raise CliError("analysis recorded no observations to attribute")
    snapshot = obs.Snapshot.from_dict(result.observations)
    tables = obs.attribution_tables(
        snapshot.counters, snapshot.labeled, top=args.top
    )
    print(
        "verdict: %s (%d labeled counters)" % (result.verdict, len(tables)),
        file=sys.stderr,
    )
    _write_or_print(obs.render_attribution(tables, args.format), args.output)
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """``trace-diff``: structurally align two exported runs and report
    the divergence, worst first (see :mod:`repro.obs.diff`)."""
    try:
        profile_a = obs.profile_from_snapshot(obs.read_run(args.run_a), args.run_a)
        profile_b = obs.profile_from_snapshot(obs.read_run(args.run_b), args.run_b)
    except ValueError as error:
        raise CliError(str(error)) from None
    diff = obs.diff_profiles(profile_a, profile_b)
    _write_or_print(
        obs.render_diff(diff, fmt=args.format, limit=args.limit), args.output
    )
    return 0


def _render_serve_frame(status: Dict[str, Any]) -> str:
    """One dashboard frame from a *serve* status document (the server
    writes per-request rows instead of a single batch's counters)."""
    lines: List[str] = []
    server = status.get("server") or {}
    pool = status.get("pool") or {}
    lines.append(
        "repro serve (pid %s) — %s active, queue limit %s, "
        "%s busy rejections"
        % (
            status.get("pid", "?"),
            server.get("active", 0),
            server.get("queue_limit", "?"),
            server.get("busy_rejections", 0),
        )
    )
    lines.append(
        "pool: %s/%s workers alive · %s spawned total · %s pool(s) created"
        % (
            pool.get("alive", 0),
            pool.get("max_workers", "?"),
            pool.get("spawned_total", 0),
            pool.get("pools_created", 0),
        )
    )
    journal = status.get("journal")
    if journal:
        # Journal health (serve --journal-dir): lag is records not yet
        # fsynced — what a power cut would lose.
        lines.append(
            "journal: %s (%.1f KiB, %s segment(s)) · lag %s · "
            "%s interrupted recovered"
            % (
                journal.get("segment", "?"),
                float(journal.get("segment_bytes", 0)) / 1024.0,
                journal.get("segments", 0),
                journal.get("lag", 0),
                journal.get("interrupted_recovered", 0),
            )
        )
    lines.append("")
    requests = status.get("requests") or []
    if not requests:
        lines.append("no requests yet")
        return "\n".join(lines) + "\n"
    lines.append("requests (newest last):")
    for row in requests:
        verdicts = row.get("verdicts") or {}
        verdict_text = (
            " ".join("%s %d" % (k, v) for k, v in sorted(verdicts.items()) if v)
            or "-"
        )
        lines.append(
            "  %-6s %-9s %3s/%-3s %6.1fs  %-28s %s"
            % (
                row.get("request_id", "?"),
                row.get("state", "?"),
                row.get("done", 0),
                row.get("total", "?"),
                float(row.get("elapsed", 0.0)),
                verdict_text,
                row.get("target", ""),
            )
        )
        if row.get("error"):
            lines.append("      ^ %s" % row["error"])
    return "\n".join(lines) + "\n"


def _render_top_frame(status: Dict[str, Any]) -> str:
    """One dashboard frame from a batch status document."""
    if "requests" in status:
        # A serve daemon's status file: per-request rows, not a single
        # batch.  Dispatching here keeps `top --once` output for plain
        # batch files byte-stable for scripts.
        return _render_serve_frame(status)
    lines: List[str] = []
    state = "finished" if status.get("finished") else "running"
    lines.append(
        "repro batch (pid %s) — %s" % (status.get("pid", "?"), state)
    )
    verdicts = status.get("verdicts") or {}
    verdict_text = (
        "  ".join("%s %d" % (k, v) for k, v in sorted(verdicts.items()) if v)
        or "none yet"
    )
    lines.append(
        "jobs: %d/%d done · %d cache hits · queue depth %d"
        % (
            int(status.get("done", 0)),
            int(status.get("total", 0)),
            int(status.get("cache_hits", 0)),
            int(status.get("queue_depth", 0)),
        )
    )
    lines.append("verdicts: %s" % verdict_text)
    job_ms = status.get("job_ms")
    if job_ms:
        lines.append(
            "job latency: p50 %.0fms · p90 %.0fms · p99 %.0fms · max %.0fms"
            % (job_ms["p50"], job_ms["p90"], job_ms["p99"], job_ms["max"])
        )
    workers = status.get("workers") or []
    lines.append("")
    if workers:
        lines.append("in-flight jobs (slowest first):")
        for worker in workers:
            lines.append(
                "  %6.1fs  %s"
                % (float(worker.get("elapsed", 0.0)), worker.get("job_id", "?"))
            )
            if worker.get("stalled"):
                lines.append("      ^ STALLED — stack dump in the --log JSONL")
    else:
        lines.append("no jobs in flight")
    return "\n".join(lines) + "\n"


def _cmd_top(args: argparse.Namespace) -> int:
    """``top``: poll a running batch's status file and render the live
    dashboard.  Exits when the batch reports itself finished."""
    from .corpus.telemetry import STATUS_BASENAME, read_status_file

    path = args.target
    if os.path.isdir(path):
        path = os.path.join(path, STATUS_BASENAME)
    if args.interval <= 0:
        raise CliError("--interval must be positive, got %g" % args.interval)
    waited = False
    try:
        while True:
            try:
                status = read_status_file(path)
            except FileNotFoundError:
                if args.once:
                    raise CliError(
                        "no status file at %s — is a batch running?" % path
                    )
                if not waited:
                    print("waiting for %s ..." % path, file=sys.stderr)
                    waited = True
                time.sleep(args.interval)
                continue
            except ValueError as error:
                raise CliError(str(error)) from None
            frame = _render_top_frame(status)
            if args.once:
                sys.stdout.write(frame)
                return 0
            # Full-screen repaint: cursor home + clear-below keeps the
            # frame flicker-free on every ANSI terminal.
            sys.stdout.write("\x1b[H\x1b[J" + frame)
            sys.stdout.flush()
            if status.get("finished"):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print("", file=sys.stderr)
        return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import html as obs_html

    generated = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    try:
        rendered = obs_html.build_report(
            trace_path=args.trace,
            log_path=args.log,
            corpus_path=args.corpus,
            baseline_trace_path=args.baseline_trace,
            journal_path=args.journal,
            title=args.title,
            generated=generated,
        )
    except ValueError as error:
        raise CliError(str(error)) from None
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print(
        "wrote %s (%d bytes)" % (args.output, len(rendered.encode("utf-8"))),
        file=sys.stderr,
    )
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """``journal``: inspect and replay a crash-safe obs journal (see
    :mod:`repro.obs.journal`)."""
    import json

    from .obs import journal as obs_journal

    action = args.journal_command
    try:
        obs.sniff_artifact(args.path, ("journal",))
        if action == "ls":
            scan = obs_journal.scan_journal(args.path)
            for info in scan.segments:
                span = (
                    "seq %d..%d" % (info.first_seq, info.last_seq)
                    if info.first_seq is not None else "empty"
                )
                corrupt = (
                    "  (%d corrupt/torn)" % info.corrupt if info.corrupt else ""
                )
                print(
                    "%-24s %6d records  %8d bytes  %s%s"
                    % (os.path.basename(info.path), info.records,
                       info.size, span, corrupt)
                )
            print(
                "%d segment(s), %d records, %d corrupt"
                % (len(scan.segments), len(scan.records), scan.corrupt),
                file=sys.stderr,
            )
            return 0
        if action == "tail":
            last_seq = 0
            for record in obs_journal.tail_records(
                args.path, limit=args.lines
            ):
                print(json.dumps(record.to_dict(), sort_keys=True))
                last_seq = max(last_seq, record.seq)
            if not args.follow:
                return 0
            try:
                while True:
                    time.sleep(args.interval)
                    for record in obs_journal.tail_records(
                        args.path, after_seq=last_seq
                    ):
                        print(json.dumps(record.to_dict(), sort_keys=True))
                        last_seq = max(last_seq, record.seq)
                    sys.stdout.flush()
            except KeyboardInterrupt:
                return 0
        if action == "show":
            shown = 0
            for record in obs_journal.read_journal(args.path):
                rid = record.data.get("request_id")
                if rid != args.request_id:
                    continue
                shown += 1
                stamp = time.strftime(
                    "%H:%M:%S", time.localtime(record.ts)
                )
                detail = record.data.get("phase") or record.data.get(
                    "verdict"
                ) or ""
                print(
                    "seq %-6d %s  %-9s %-12s %s"
                    % (record.seq, stamp, record.type, detail,
                       json.dumps(record.data, sort_keys=True))
                )
            if not shown:
                raise CliError(
                    "no records for request %r in %s"
                    % (args.request_id, args.path)
                )
            return 0
        # replay: rebuild the artifacts from the journal alone, with
        # the exporters a live run uses
        replay = obs_journal.replay_journal(args.path)
        snapshot = replay.snapshot
        wrote = False
        if args.trace:
            recorder = obs.Recorder(log_level=obs.DEBUG)
            snapshot.merge_into(recorder)
            obs.write_chrome_trace(recorder, args.trace)
            print("wrote %s" % args.trace, file=sys.stderr)
            wrote = True
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(obs.render_openmetrics(
                    snapshot.counters, snapshot.gauges, snapshot.histograms))
            print("wrote %s" % args.metrics, file=sys.stderr)
            wrote = True
        if args.html:
            from .obs.html import render_report_html

            generated = time.strftime(
                "%Y-%m-%d %H:%M:%S UTC", time.gmtime()
            )
            rendered = render_report_html(
                snapshot, log_events=snapshot.events,
                corpus=replay.corpus_doc(),
                title=args.title, generated=generated,
            )
            with open(args.html, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print("wrote %s" % args.html, file=sys.stderr)
            wrote = True
        states: Dict[str, int] = {}
        for info in replay.requests.values():
            states[info["state"]] = states.get(info["state"], 0) + 1
        state_text = (
            " ".join(
                "%s %d" % (k, v) for k, v in sorted(states.items())
            ) or "none"
        )
        print(
            "replayed %d records (%d corrupt/torn) from %d segment(s): "
            "%d job(s), requests: %s"
            % (replay.records, replay.corrupt, len(replay.segments),
               len(replay.jobs), state_text)
        )
        if not wrote:
            print(
                "hint: --trace/--metrics/--html write the reconstructed "
                "artifacts",
                file=sys.stderr,
            )
        return 0
    except ValueError as error:
        raise CliError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Text-preserving XML transformation analysis (PODS 2011).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate a document against a schema")
    validate.add_argument("schema")
    validate.add_argument("document")
    validate.set_defaults(func=_cmd_validate)

    transform = sub.add_parser("transform", help="apply a transducer to a document")
    transform.add_argument("transducer")
    transform.add_argument("document")
    transform.set_defaults(func=_cmd_transform)

    check = sub.add_parser("check", help="decide text-preservation over a schema")
    check.add_argument("transducer")
    check.add_argument("schema")
    check.add_argument("--protect", action="append", metavar="LABEL")
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format; json emits the corpus-job object "
        "(default: text)",
    )
    _add_observation_flags(check)
    check.set_defaults(func=_cmd_check)

    lint = sub.add_parser(
        "lint", help="static analysis with coded, explainable diagnostics"
    )
    lint.add_argument("transducer")
    lint.add_argument("schema")
    lint.add_argument("--protect", action="append", metavar="LABEL")
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="exit non-zero when findings at/above this severity exist; "
        "any registered severity (info, warning, error) is accepted "
        "(default: error)",
    )
    lint.add_argument(
        "--passes", default=None, metavar="P1,P2",
        help="run only these dataflow passes (comma-separated) plus their "
        "dependencies; available: %s (default: all)" % ", ".join(pass_names()),
    )
    lint.add_argument(
        "--no-prefilter", action="store_true",
        help="disable the sound dataflow pre-filters gating the expensive "
        "decision procedures (findings are identical either way)",
    )
    _add_observation_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    subschema = sub.add_parser("subschema", help="compute the maximal safe sub-schema")
    subschema.add_argument("transducer")
    subschema.add_argument("schema")
    subschema.add_argument("--protect", action="append", metavar="LABEL")
    subschema.add_argument("--examples", type=int, default=5)
    subschema.add_argument(
        "--output", metavar="FILE.json", help="write the sub-schema NTA as JSON"
    )
    subschema.set_defaults(func=_cmd_subschema)

    profile = sub.add_parser(
        "profile",
        help="run the decision pipeline under instrumentation and print "
        "the span tree",
    )
    profile.add_argument("transducer")
    profile.add_argument("schema")
    profile.add_argument("--protect", action="append", metavar="LABEL")
    profile.add_argument(
        "--trace", metavar="FILE.json",
        help="also write a Chrome trace_event file of the run",
    )
    _add_log_flags(profile)
    profile.set_defaults(func=_cmd_profile)

    batch = sub.add_parser(
        "batch",
        help="audit a whole corpus of (transducer, schema) pairs in "
        "parallel, with content-addressed result caching",
    )
    batch.add_argument("corpus_dir", metavar="CORPUS_DIR")
    batch.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: min(cpu count, 8))",
    )
    batch.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job timeout in seconds; a job over the limit is "
        "reported as 'timeout' without affecting its siblings",
    )
    batch.add_argument(
        "--cache-dir", default=None, metavar="D",
        help="result cache location (default: CORPUS_DIR/.repro-cache)",
    )
    batch.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; neither read nor write the cache",
    )
    batch.add_argument(
        "--shard", metavar="i/N", default=None,
        help="run only this deterministic slice of the corpus "
        "(SHA-256 of the job id mod N); N invocations 0/N..N-1/N "
        "partition the corpus with no coordination (default: all jobs)",
    )
    batch.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text",
        help="report format; json streams JSONL job objects plus a "
        "summary trailer (default: text)",
    )
    batch.add_argument(
        "--fail-on", default="error", metavar="SEVERITY",
        help="exit non-zero when a safe job still has findings at/above "
        "this severity; unsafe/error/timeout jobs always fail; any "
        "registered severity (info, warning, error) is accepted "
        "(default: error)",
    )
    batch.add_argument(
        "--no-prefilter", action="store_true",
        help="disable the sound dataflow pre-filters in every worker "
        "(findings are identical either way)",
    )
    batch.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    progress_group = batch.add_mutually_exclusive_group()
    progress_group.add_argument(
        "--progress", dest="progress", action="store_const", const=True,
        default=None,
        help="force the live status line on stderr even when piped "
        "(default: auto — on only when stderr and stdout are TTYs)",
    )
    progress_group.add_argument(
        "--no-progress", dest="progress", action="store_const", const=False,
        help="suppress the live status line even on a TTY",
    )
    batch.add_argument(
        "--stall-after", type=float, default=None, metavar="S",
        help="stall watchdog: a job still running after S seconds gets "
        "a faulthandler stack dump folded into the --log JSONL as a "
        "structured WARNING (default: off)",
    )
    batch.add_argument(
        "--status-file", metavar="FILE",
        help="live status JSON rewritten each heartbeat for "
        "'python -m repro top' (default: CORPUS_DIR/.repro-status.json)",
    )
    batch.add_argument(
        "--journal", metavar="DIR",
        help="append every job verdict and the final run snapshot to a "
        "crash-safe journal under DIR (inspect/replay with 'python -m "
        "repro journal'); an uncaught exception is journaled as a "
        "crash record",
    )
    _add_observation_flags(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="run the resident audit daemon: warm worker pool, hot "
        "result cache, bounded admission queue, NDJSON + local HTTP",
    )
    endpoint = serve.add_mutually_exclusive_group(required=True)
    endpoint.add_argument(
        "--socket", metavar="PATH", default=None,
        help="listen on a unix socket at PATH",
    )
    endpoint.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="listen on 127.0.0.1:N instead of a unix socket",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes in the shared pool "
        "(default: min(cpu count, 8))",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="admission high-water mark: submits past N queued+running "
        "requests are refused with a busy event / HTTP 429 (default: 8)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="default per-job timeout applied to requests that do not "
        "set their own (default: none)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="D",
        help="pin one shared result cache directory (default: each "
        "corpus's own .repro-cache)",
    )
    serve.add_argument(
        "--status-file", metavar="FILE",
        help="status JSON with per-request rows for 'python -m repro "
        "top' (default: ./.repro-status.json)",
    )
    serve.add_argument(
        "--metrics", metavar="FILE",
        help="flush the server-lifetime OpenMetrics exposition to FILE "
        "on graceful shutdown (live scrape: GET /metrics)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="grace period after the first SIGINT/SIGTERM before "
        "in-flight requests are cancelled (default: 10)",
    )
    serve.add_argument(
        "--journal-dir", metavar="DIR",
        help="write-ahead journal directory: every request's admission/"
        "shard/verdict/terminal transition is journaled as it happens, "
        "and a restart replays the journal to restore the request table "
        "(requests that died in flight surface as 'interrupted'); an "
        "uncaught exception is journaled as a crash record",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit an audit to a running serve daemon and stream "
        "its per-job events",
    )
    submit.add_argument(
        "target", nargs="+", metavar="CORPUS_DIR | TRANSDUCER SCHEMA",
        help="a corpus directory, or one transducer+schema pair",
    )
    submit.add_argument(
        "--socket", metavar="PATH", default=None,
        help="server unix socket path",
    )
    submit.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="server TCP port on 127.0.0.1",
    )
    submit.add_argument("--protect", action="append", metavar="LABEL")
    submit.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split the corpus into N deterministic shards executed "
        "concurrently on the server's shared pool (default: 1)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job timeout for this request (default: the server's)",
    )
    submit.add_argument(
        "--no-cache", action="store_true",
        help="ask the server to bypass the result cache for this request",
    )
    submit.add_argument(
        "--format", choices=("text", "events"), default="text",
        help="text renders human lines; events prints the raw JSONL "
        "stream (LogEvent-shaped, --log compatible) (default: text)",
    )
    submit.set_defaults(func=_cmd_submit)

    top = sub.add_parser(
        "top",
        help="live TTY dashboard over a running batch (per-worker "
        "state, queue depth, cache hits, verdicts, p99 job latency)",
    )
    top.add_argument(
        "target", nargs="?", default=".", metavar="CORPUS_DIR|STATUS_FILE",
        help="corpus directory of the running batch, or its status "
        "file directly (default: .)",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="poll period in seconds (default: 0.5)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen control)",
    )
    top.set_defaults(func=_cmd_top)

    explain = sub.add_parser(
        "explain",
        help="attribute a pair's recorded work to the transducer rules "
        "and call sites responsible (hot-rule tables)",
    )
    explain.add_argument("transducer")
    explain.add_argument("schema")
    explain.add_argument("--protect", action="append", metavar="LABEL")
    explain.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="show at most N label combinations per counter (default: 10)",
    )
    explain.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text",
        help="output format (default: text)",
    )
    explain.add_argument(
        "--output", metavar="FILE",
        help="write the attribution report to FILE instead of stdout",
    )
    explain.set_defaults(func=_cmd_explain)

    trace_diff = sub.add_parser(
        "trace-diff",
        help="structurally diff two runs (Chrome trace, Snapshot "
        "document, journal directory or segment), worst divergence first",
    )
    trace_diff.add_argument("run_a", metavar="A.json")
    trace_diff.add_argument("run_b", metavar="B.json")
    trace_diff.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text",
        help="output format (default: text)",
    )
    trace_diff.add_argument(
        "--limit", type=int, default=15, metavar="N",
        help="show at most N rows per section (default: 15)",
    )
    trace_diff.add_argument(
        "--output", metavar="FILE",
        help="write the diff to FILE instead of stdout",
    )
    trace_diff.set_defaults(func=_cmd_trace_diff)

    report = sub.add_parser(
        "report",
        help="render a self-contained HTML observability report "
        "(span waterfall, counters, log, corpus verdicts)",
    )
    report.add_argument(
        "--trace", metavar="FILE.json",
        help="the run to render: a Chrome trace_event file, a Snapshot "
        "document, or a journal directory or segment",
    )
    report.add_argument(
        "--log", metavar="FILE.jsonl",
        help="structured log JSONL to include (written by --log)",
    )
    report.add_argument(
        "--corpus", metavar="FILE.jsonl",
        help="corpus JSONL report (batch --format json --output ...) "
        "for the verdict summary",
    )
    report.add_argument(
        "--baseline-trace", metavar="FILE.json",
        help="reference run to diff --trace against (adds the trace "
        "diff section; same inputs as trace-diff)",
    )
    report.add_argument(
        "--journal", metavar="DIR",
        help="build the report from a crash-safe journal (a serve "
        "--journal-dir / batch --journal directory, or one segment "
        "file) instead of --trace/--log/--corpus — the postmortem path",
    )
    report.add_argument(
        "--title", default="repro observability report",
        help="document title",
    )
    report.add_argument(
        "--output", default="obs.html", metavar="FILE.html",
        help="where to write the report (default: obs.html)",
    )
    report.set_defaults(func=_cmd_report)

    journal = sub.add_parser(
        "journal",
        help="inspect and replay the crash-safe obs journal written by "
        "'serve --journal-dir' / 'batch --journal'",
    )
    journal_sub = journal.add_subparsers(
        dest="journal_command", required=True
    )
    journal_ls = journal_sub.add_parser(
        "ls", help="list the journal's segments (records, bytes, seq span)"
    )
    journal_ls.add_argument(
        "path", metavar="JOURNAL",
        help="journal directory or one segment file",
    )
    journal_tail = journal_sub.add_parser(
        "tail", help="print the newest records as JSONL; -f follows"
    )
    journal_tail.add_argument("path", metavar="JOURNAL")
    journal_tail.add_argument(
        "--lines", "-n", type=int, default=10, metavar="N",
        help="records to print (default: 10)",
    )
    journal_tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling for new records until interrupted",
    )
    journal_tail.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll period with --follow (default: 1.0)",
    )
    journal_show = journal_sub.add_parser(
        "show", help="print every record belonging to one request"
    )
    journal_show.add_argument("path", metavar="JOURNAL")
    journal_show.add_argument("request_id", metavar="REQUEST_ID")
    journal_replay = journal_sub.add_parser(
        "replay",
        help="reconstruct the Chrome trace, OpenMetrics snapshot, and "
        "HTML report from the journal alone (no live process needed)",
    )
    journal_replay.add_argument("path", metavar="JOURNAL")
    journal_replay.add_argument(
        "--trace", metavar="FILE.json",
        help="write the reconstructed Chrome trace_event file",
    )
    journal_replay.add_argument(
        "--metrics", metavar="FILE",
        help="write the reconstructed OpenMetrics exposition",
    )
    journal_replay.add_argument(
        "--html", metavar="FILE.html",
        help="write the reconstructed HTML observability report",
    )
    journal_replay.add_argument(
        "--title", default="repro journal replay",
        help="HTML document title",
    )
    journal.set_defaults(func=_cmd_journal)
    return parser


def _add_observation_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--stats", action="store_true",
        help="print the recorded span tree and counters to stderr",
    )
    sub_parser.add_argument(
        "--trace", metavar="FILE.json",
        help="write a Chrome trace_event file of the run",
    )
    _add_log_flags(sub_parser)


def _add_log_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--log", metavar="FILE.jsonl",
        help="write span-correlated structured log events as JSONL "
        "(each event's span_id joins against the --trace file)",
    )
    sub_parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum level buffered while --log/--trace is active "
        "(default: info)",
    )
    sub_parser.add_argument(
        "--metrics", metavar="FILE",
        help="write the run's counters/gauges/histograms as "
        "Prometheus/OpenMetrics text exposition",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
