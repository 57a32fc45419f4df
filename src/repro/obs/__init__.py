"""Zero-dependency instrumentation for the decision procedures.

The complexity results this repo reproduces are *about* automaton
growth: the PTIME pipeline of Theorem 4.11 lives or dies on the size of
the Lemma 4.8 path automata and their products, the EXPTIME and
non-elementary results (Theorems 5.18/5.12) on MSO-compiled automaton
blow-up.  This package makes that growth observable:

* ``obs.span(name)`` — a context-local span tree with wall time and
  attached attributes (``with obs.span("ptime.product") as sp:
  sp.set("states", n)``);
* ``obs.add(name)`` / ``obs.set_gauge(name, value)`` — typed counters
  and gauges per subsystem (``nta.*``, ``ptime.*``, ``mso.*``,
  ``xpath.*``, ``typecheck.*``, ``safety.*``, ``lint.*``,
  ``oracle.*``);
* exporters — text tree and Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto;
* ``obs.Snapshot`` — a picklable, mergeable view of a recorder's
  counters/gauges, used to ship per-job observations across the
  :mod:`repro.corpus` worker-process boundary;
* ``obs.Journal`` / ``obs.replay_journal`` — the crash-safe on-disk
  event journal (see :mod:`repro.obs.journal`) behind ``serve
  --journal-dir``, ``batch --journal`` and ``python -m repro
  journal``, with :mod:`repro.obs.flight` holding the in-memory
  flight recorder dumped to ``crash-*.json`` postmortems.

Nothing records unless a recorder is installed::

    from repro import obs

    with obs.recording() as rec:
        is_text_preserving(transducer, schema)
    print(obs.render_text(rec))

When no recorder is active every instrumentation point is a single
ContextVar read and truthiness check — the E5 family shows no
measurable slowdown with instrumentation disabled.

CLI surface: ``python -m repro profile TDX SCHEMA`` and the
``--trace FILE`` / ``--stats`` flags on ``check`` and ``lint``.
"""

from . import attr, diff, flight
from .attr import (
    AttributionRow,
    AttributionTable,
    attribution_tables,
    group_by_label,
    render_attribution,
)
from .export import (
    render_text,
    span_from_dict,
    span_to_dict,
    spans_from_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from .log import (
    DEBUG,
    ERROR,
    INFO,
    LEVELS,
    WARNING,
    LogEvent,
    debug,
    error,
    events_to_dicts,
    info,
    level_name,
    log,
    parse_level,
    read_log_jsonl,
    warning,
    write_log_jsonl,
)
from .diff import (
    ProfileDelta,
    ProfileDiff,
    RunProfile,
    SpanStat,
    diff_profiles,
    load_run_profile,
    profile_from_payload,
    profile_from_recorder,
    render_diff,
)
from .flight import FlightRecorder
from .journal import (
    JOURNAL_KIND,
    Journal,
    JournalRecord,
    JournalReplay,
    JournalScan,
    SegmentInfo,
    journal_segments,
    read_journal,
    replay_journal,
    scan_journal,
    tail_records,
)
from .metrics import (
    Histogram,
    SampleSeries,
    metric_family_name,
    read_timeline_jsonl,
    render_openmetrics,
    sniff_jsonl_kind,
    validate_openmetrics,
    write_timeline_jsonl,
)
from .recorder import (
    NULL_SPAN,
    LabelKey,
    Recorder,
    Span,
    add,
    current,
    enabled,
    gauge_max,
    label_key,
    observe,
    recording,
    sample,
    set_gauge,
    span,
)
from .snapshot import (
    Snapshot,
    labeled_from_jsonable,
    labeled_to_jsonable,
    merge_labeled,
)

__all__ = [
    "attr",
    "diff",
    "flight",
    "FlightRecorder",
    "JOURNAL_KIND",
    "Journal",
    "JournalRecord",
    "JournalReplay",
    "JournalScan",
    "SegmentInfo",
    "journal_segments",
    "read_journal",
    "replay_journal",
    "scan_journal",
    "tail_records",
    "AttributionRow",
    "AttributionTable",
    "attribution_tables",
    "group_by_label",
    "render_attribution",
    "ProfileDelta",
    "ProfileDiff",
    "RunProfile",
    "SpanStat",
    "diff_profiles",
    "load_run_profile",
    "profile_from_payload",
    "profile_from_recorder",
    "render_diff",
    "LabelKey",
    "label_key",
    "labeled_to_jsonable",
    "labeled_from_jsonable",
    "merge_labeled",
    "Span",
    "Snapshot",
    "Recorder",
    "recording",
    "current",
    "enabled",
    "span",
    "add",
    "set_gauge",
    "gauge_max",
    "observe",
    "sample",
    "Histogram",
    "SampleSeries",
    "render_openmetrics",
    "validate_openmetrics",
    "metric_family_name",
    "write_timeline_jsonl",
    "read_timeline_jsonl",
    "sniff_jsonl_kind",
    "NULL_SPAN",
    "render_text",
    "span_to_dict",
    "span_from_dict",
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_from_chrome_trace",
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "LEVELS",
    "LogEvent",
    "log",
    "debug",
    "info",
    "warning",
    "error",
    "level_name",
    "parse_level",
    "events_to_dicts",
    "write_log_jsonl",
    "read_log_jsonl",
]
