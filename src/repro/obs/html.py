"""Self-contained HTML observability report (``python -m repro report``).

One static HTML file — no scripts, no external URLs, no dependencies —
that a CI run can attach as an artifact and a human can open anywhere.
:func:`render_report_html` draws it from one run's
:class:`~repro.obs.snapshot.Snapshot`, for ``report`` (which reads runs
with :func:`repro.obs.export.read_run`), ``journal replay --html`` and
the serve daemon's ``GET /trace/<request-id>`` alike:

* **span waterfall** (the recorder's own span ids shown, so ``--log``
  lines join against the rows);
* **counter table** and **latency distributions** from the run's
  registries;
* **work attribution** from the run's labeled-counter registry:
  per-counter hot-rule tables with coverage shares, the HTML twin of
  ``python -m repro explain``;
* **trace diff** against a second (baseline) trace when
  ``--baseline-trace`` is given — span/counter/attribution deltas,
  worst divergence first, the HTML twin of ``python -m repro
  trace-diff``;
* **structured log excerpt** from a ``--log`` JSONL file, levels
  badged;
* **corpus verdict summary** from a ``batch --format json`` JSONL
  report.

Every section renders a placeholder when its input is absent, so
``python -m repro report --output obs.html`` always succeeds.  Large
inputs are truncated with an explicit "showing N of M" note — never
silently.  Colors follow a single categorical accent for magnitude
marks plus a labelled status palette (a verdict or level is always a
text label next to its dot, never color alone); dark mode restyles via
``prefers-color-scheme``.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .attr import attribution_tables, format_label_key
from .diff import ProfileDiff, diff_profiles, profile_from_snapshot
from .export import read_run, sniff_artifact, span_from_dict
from .journal import replay_journal
from .metrics import Histogram, bucket_upper_bound
from .recorder import LabelKey, Span
from .snapshot import Snapshot

__all__ = ["build_report", "render_report_html"]

#: Row caps per section — the artifact must stay well under 1 MB.
MAX_WATERFALL_ROWS = 400
MAX_LOG_ROWS = 500

_STATUS_CLASS = {
    "safe": "good",
    "info": "accent",
    "debug": "muted",
    "warning": "warning",
    "timeout": "warning",
    "unsafe": "serious",
    "error": "critical",
}

_CSS = """
:root {
  --surface: #fcfcfb;
  --surface-raised: #f4f4f2;
  --ink: #1a1a19;
  --ink-secondary: #56565a;
  --border: #e3e3df;
  --accent: #2a78d6;
  --good: #0ca30c;
  --warning: #fab219;
  --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --surface-raised: #242422;
    --ink: #f2f2ef;
    --ink-secondary: #b4b4ae;
    --border: #3a3a37;
    --accent: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 2rem 1.5rem 4rem; max-width: 64rem;
  background: var(--surface); color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif;
}
h1 { font-size: 1.45rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.1rem; margin: 2.25rem 0 0.5rem; }
.meta, .note { color: var(--ink-secondary); font-size: 0.85rem; }
.note { margin: 0.4rem 0; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td {
  text-align: left; padding: 0.3rem 0.7rem 0.3rem 0;
  border-bottom: 1px solid var(--border); vertical-align: top;
}
th { color: var(--ink-secondary); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code { font-size: 0.85em; }
.wf { font-size: 0.8rem; }
.wf-row { display: flex; align-items: center; gap: 0.6rem; padding: 1px 0; }
.wf-name {
  flex: 0 0 22rem; overflow: hidden; text-overflow: ellipsis;
  white-space: nowrap; font-family: ui-monospace, monospace;
}
.wf-track { flex: 1; position: relative; height: 12px; }
.wf-bar {
  position: absolute; top: 2px; height: 8px; min-width: 2px;
  background: var(--accent); border-radius: 4px;
}
.wf-dur {
  flex: 0 0 6rem; text-align: right;
  font-variant-numeric: tabular-nums; color: var(--ink-secondary);
}
.dot {
  display: inline-block; width: 9px; height: 9px; border-radius: 50%;
  margin-right: 0.4rem; vertical-align: baseline;
  border: 1px solid var(--border);
}
.dot.good { background: var(--good); }
.dot.warning { background: var(--warning); }
.dot.serious { background: var(--serious); }
.dot.critical { background: var(--critical); }
.dot.accent { background: var(--accent); }
.dot.muted { background: var(--ink-secondary); }
.badges { display: flex; flex-wrap: wrap; gap: 0.75rem 1.5rem; margin: 0.75rem 0; }
.badge {
  background: var(--surface-raised); border: 1px solid var(--border);
  border-radius: 6px; padding: 0.45rem 0.8rem;
}
.badge b { font-size: 1.2rem; margin-right: 0.35rem; }
.hstrip { display: inline-flex; align-items: flex-end; gap: 1px; height: 16px; }
.hbar {
  display: inline-block; width: 5px; background: var(--accent);
  border-radius: 1px 1px 0 0;
}
"""


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return "%.3f s" % (ns / 1e9)
    if ns >= 1e6:
        return "%.2f ms" % (ns / 1e6)
    return "%.1f µs" % (ns / 1e3)


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return "%d" % value
    return "%g" % value


def _status_dot(label: str) -> str:
    css = _STATUS_CLASS.get(label, "muted")
    return '<span class="dot %s"></span>%s' % (css, _esc(label))


def _placeholder(text: str) -> str:
    return '<p class="note">%s</p>' % _esc(text)


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _flatten(spans: Sequence[Span]) -> List[Tuple[int, Span]]:
    rows: List[Tuple[int, Span]] = []

    def walk(span: Span, depth: int) -> None:
        rows.append((depth, span))
        for child in span.children:
            walk(child, depth + 1)

    for root in spans:
        walk(root, 0)
    return rows


def _section_waterfall(snapshot: Optional[Snapshot]) -> str:
    if snapshot is None:
        return _placeholder(
            "No trace supplied — pass --trace FILE.json "
            "(written by any command's --trace flag)."
        )
    rows = _flatten([span_from_dict(root) for root in snapshot.spans])
    if not rows:
        return _placeholder("The trace contains no spans.")
    origin = min(span.start_ns for _, span in rows)
    end = max(span.end_ns for _, span in rows)
    total = max(end - origin, 1)
    shown = rows[:MAX_WATERFALL_ROWS]
    out = ['<div class="wf">']
    for depth, span in shown:
        left = 100.0 * (span.start_ns - origin) / total
        width = max(100.0 * span.duration_ns / total, 0.15)
        attrs = ", ".join(
            "%s=%s" % (k, span.attrs[k]) for k in sorted(span.attrs)
        )
        tooltip = "span %s%s" % (
            span.span_id if span.span_id is not None else "?",
            (" — " + attrs) if attrs else "",
        )
        out.append(
            '<div class="wf-row" title="%s">'
            '<span class="wf-name" style="padding-left:%drem">%s</span>'
            '<span class="wf-track"><span class="wf-bar" '
            'style="left:%.2f%%;width:%.2f%%"></span></span>'
            '<span class="wf-dur">%s</span></div>'
            % (
                _esc(tooltip), depth, _esc(span.name),
                left, min(width, 100.0 - left if left < 100.0 else width),
                _esc(_fmt_ns(span.duration_ns)),
            )
        )
    out.append("</div>")
    if len(rows) > len(shown):
        out.append(
            '<p class="note">showing %d of %d spans (deepest rows '
            "truncated)</p>" % (len(shown), len(rows))
        )
    return "".join(out)


def _section_counters(counters: Dict[str, float]) -> str:
    if not counters:
        return _placeholder("No counters recorded in the trace.")
    rows = "".join(
        '<tr><td><code>%s</code></td><td class="num">%s</td></tr>'
        % (_esc(name), _esc(_fmt_num(counters[name])))
        for name in sorted(counters)
    )
    return (
        '<table><tr><th>counter</th><th class="num">value</th></tr>%s'
        "</table>" % rows
    )


def _section_histograms(histograms: Dict[str, Histogram]) -> str:
    """Latency/size distributions: one row per metric with the p50/p90/
    p99/max summary and a bar strip over the log2 buckets."""
    if not histograms:
        return _placeholder(
            "No distributions recorded in the trace (the run predates "
            "histogram metrics, or no instrumented path executed)."
        )
    rows = []
    for name in sorted(histograms):
        histogram = histograms[name]
        summary = histogram.summary()
        buckets = sorted(histogram.buckets.items())
        peak = max((count for _, count in buckets), default=1)
        bars = "".join(
            '<span class="hbar" style="height:%dpx" title="&le;%s: %d"></span>'
            % (max(2, int(round(14.0 * count / peak))),
               _esc(_fmt_num(bucket_upper_bound(index))), count)
            for index, count in buckets
        )
        rows.append(
            "<tr><td><code>%s</code></td>"
            '<td class="num">%d</td><td class="num">%s</td>'
            '<td class="num">%s</td><td class="num">%s</td>'
            '<td class="num">%s</td><td><span class="hstrip">%s</span></td></tr>'
            % (_esc(name), int(summary["count"]),
               _esc(_fmt_num(summary["p50"])), _esc(_fmt_num(summary["p90"])),
               _esc(_fmt_num(summary["p99"])), _esc(_fmt_num(summary["max"])),
               bars)
        )
    return (
        '<table><tr><th>metric</th><th class="num">n</th>'
        '<th class="num">p50</th><th class="num">p90</th>'
        '<th class="num">p99</th><th class="num">max</th>'
        "<th>log&#8322; buckets</th></tr>%s</table>" % "".join(rows)
    )


def _section_attribution(
    counters: Dict[str, float], labeled: Dict[str, Dict[LabelKey, float]]
) -> str:
    if not labeled:
        return _placeholder(
            "No labeled counters in the trace — attribution is recorded "
            "by instrumented runs (check/lint/profile/batch --trace)."
        )
    out: List[str] = []
    for table in attribution_tables(counters, labeled, top=8):
        out.append(
            '<p class="note"><code>%s</code> — total %s, '
            "%s/%s attributed (%.1f%%)</p>"
            % (
                _esc(table.counter),
                _esc(_fmt_num(table.total)),
                _esc(_fmt_num(table.attributed)),
                _esc(_fmt_num(table.total)),
                100.0 * table.coverage,
            )
        )
        rows = "".join(
            '<tr><td><code>%s</code></td><td class="num">%s</td>'
            '<td class="num">%.1f%%</td></tr>'
            % (
                _esc(format_label_key(row.labels)),
                _esc(_fmt_num(row.value)),
                100.0 * row.share,
            )
            for row in table.rows
        )
        out.append(
            '<table><tr><th>labels</th><th class="num">value</th>'
            '<th class="num">share</th></tr>%s</table>' % rows
        )
        if table.hidden:
            out.append(
                '<p class="note">… %d more label combinations</p>'
                % table.hidden
            )
    return "".join(out)


def _fmt_delta_value(value: Optional[float], unit: str) -> str:
    if value is None:
        return "—"
    if unit == "ns":
        return _fmt_ns(value)
    return _fmt_num(value)


def _section_trace_diff(diff: Optional[ProfileDiff], limit: int = 15) -> str:
    if diff is None:
        return _placeholder(
            "No baseline supplied — pass --baseline-trace FILE.json "
            "alongside --trace to diff the run against a reference."
        )
    diverging = diff.diverging
    out: List[str] = [
        '<p class="note">%s → %s · %d diverging metric%s</p>'
        % (
            _esc(diff.a_label),
            _esc(diff.b_label),
            len(diverging),
            "" if len(diverging) == 1 else "s",
        )
    ]
    sections = (
        ("span durations", diff.spans),
        ("counters", diff.counters),
        ("gauges", diff.gauges),
        ("attribution", diff.attribution),
    )
    for title, deltas in sections:
        if not deltas:
            continue
        shown = deltas[:limit]
        rows = "".join(
            "<tr><td><code>%s</code></td>"
            '<td class="num">%s</td><td class="num">%s</td>'
            '<td class="num">%s</td></tr>'
            % (
                _esc(delta.key),
                _esc(_fmt_delta_value(delta.a, delta.unit)),
                _esc(_fmt_delta_value(delta.b, delta.unit)),
                _esc(
                    delta.status
                    if delta.status in ("only-a", "only-b")
                    else _fmt_delta_value(delta.delta, delta.unit)
                ),
            )
            for delta in shown
        )
        out.append(
            '<p class="note">%s (worst divergence first)</p>'
            "<table><tr><th>metric</th>"
            '<th class="num">baseline</th><th class="num">candidate</th>'
            '<th class="num">Δ</th></tr>%s</table>'
            % (_esc(title), rows)
        )
        if len(deltas) > len(shown):
            out.append(
                '<p class="note">showing %d of %d rows</p>'
                % (len(shown), len(deltas))
            )
    return "".join(out)


def _section_log(events: Optional[List[Dict[str, Any]]]) -> str:
    if events is None:
        return _placeholder(
            "No log supplied — pass --log FILE.jsonl "
            "(written by any command's --log flag)."
        )
    if not events:
        return _placeholder("The log file contains no events.")
    shown = events[:MAX_LOG_ROWS]
    rows = []
    for event in shown:
        fields = event.get("fields") or {}
        detail = ", ".join("%s=%s" % (k, fields[k]) for k in sorted(fields))
        rows.append(
            "<tr><td>%s</td><td><code>%s</code></td><td>%s</td>"
            '<td class="num">%s</td><td>%s</td></tr>'
            % (
                _status_dot(str(event.get("level", "info"))),
                _esc(event.get("logger", "")),
                _esc(event.get("message", "")),
                _esc(event.get("span_id", "")),
                _esc(detail),
            )
        )
    out = [
        "<table><tr><th>level</th><th>logger</th><th>message</th>"
        '<th class="num">span</th><th>fields</th></tr>',
        "".join(rows),
        "</table>",
    ]
    if len(events) > len(shown):
        out.append(
            '<p class="note">showing first %d of %d events</p>'
            % (len(shown), len(events))
        )
    return "".join(out)


def _section_corpus(corpus: Optional[Dict[str, Any]]) -> str:
    if corpus is None:
        return _placeholder(
            "No corpus report supplied — pass --corpus FILE.jsonl "
            "(written by batch --format json --output FILE.jsonl)."
        )
    summary = corpus.get("summary", {})
    verdicts = summary.get("verdicts", {})
    badges = "".join(
        '<span class="badge"><b>%d</b>%s</span>'
        % (int(verdicts.get(verdict, 0)), _status_dot(verdict))
        for verdict in ("safe", "unsafe", "timeout", "error")
    )
    cache = summary.get("cache", {})
    notes = (
        '<p class="note">%s jobs · cache %s hits / %s misses · '
        "engine wall time %ss · %s workers</p>"
        % (
            _esc(summary.get("jobs", "?")),
            _esc(cache.get("hits", "?")), _esc(cache.get("misses", "?")),
            _esc(summary.get("wall_time_s", "?")),
            _esc(summary.get("workers", "?")),
        )
    )
    bad = [
        job for job in corpus.get("jobs", ())
        if job.get("verdict") != "safe"
    ]
    table = ""
    if bad:
        rows = "".join(
            "<tr><td>%s</td><td><code>%s</code></td><td>%s</td></tr>"
            % (
                _status_dot(str(job.get("verdict", "error"))),
                _esc(job.get("job_id", "")),
                _esc(job.get("error") or ""),
            )
            for job in bad
        )
        table = (
            "<table><tr><th>verdict</th><th>job</th><th>detail</th></tr>"
            "%s</table>" % rows
        )
    return '<div class="badges">%s</div>%s%s' % (badges, notes, table)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def render_report_html(
    snapshot: Optional[Snapshot] = None,
    *,
    log_events: Optional[List[Dict[str, Any]]] = None,
    corpus: Optional[Dict[str, Any]] = None,
    diff: Optional[ProfileDiff] = None,
    title: str = "repro observability report",
    generated: str = "",
) -> str:
    """The document for one run (each ``None`` input renders as a
    placeholder): ``log_events`` are LogEvent dicts, ``corpus`` is
    ``{"jobs": [...], "summary": {...}}`` and ``diff`` compares the run
    against a baseline."""
    run = snapshot or Snapshot()
    sections = [
        ("Span waterfall", _section_waterfall(snapshot)),
        ("Counters", _section_counters(run.counters)),
        ("Latency distributions", _section_histograms(run.histograms)),
        ("Work attribution", _section_attribution(run.counters, run.labeled)),
        ("Trace diff vs baseline", _section_trace_diff(diff)),
        ("Structured log", _section_log(log_events)),
        ("Latest corpus audit", _section_corpus(corpus)),
    ]
    body = "".join(
        "<h2>%s</h2>%s" % (_esc(heading), content)
        for heading, content in sections
    )
    meta = (
        '<p class="meta">generated %s</p>' % _esc(generated)
        if generated
        else ""
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        "<title>%s</title><style>%s</style></head>"
        "<body><h1>%s</h1>%s%s</body></html>\n"
        % (_esc(title), _CSS, _esc(title), meta, body)
    )


def _read_jsonl(path: str, kind: str) -> List[Dict[str, Any]]:
    """The objects of a JSONL artifact that must be of ``kind``."""
    sniff_artifact(path, (kind,))
    with open(path, encoding="utf-8") as handle:
        try:
            return [json.loads(line) for line in handle if line.strip()]
        except ValueError as error:
            raise ValueError("%s: %s" % (path, error)) from None


def build_report(
    *,
    trace_path: Optional[str] = None,
    log_path: Optional[str] = None,
    corpus_path: Optional[str] = None,
    baseline_trace_path: Optional[str] = None,
    journal_path: Optional[str] = None,
    title: str = "repro observability report",
    generated: str = "",
) -> str:
    """Load every named input and render the document (an input not
    named renders its placeholder).

    Each input goes through :func:`repro.obs.export.sniff_artifact`, so
    a missing file or one of the wrong kind raises ``ValueError("PATH:
    ...")``.  ``trace_path`` and ``baseline_trace_path`` (which adds the
    trace diff section) take any run :func:`repro.obs.export.read_run`
    reads; ``log_path`` is a ``--log`` JSONL file, ``corpus_path`` a
    ``batch --format json`` report.  ``journal_path`` replaces the
    other three: the journal's replay supplies the run, its log events
    and the corpus section — a dead process's report from the journal
    alone.
    """
    snapshot: Optional[Snapshot] = None
    log_events: Optional[List[Dict[str, Any]]] = None
    corpus: Optional[Dict[str, Any]] = None
    if journal_path:
        if trace_path or log_path or corpus_path:
            raise ValueError(
                "--journal replaces --trace/--log/--corpus: the journal "
                "replay supplies all three"
            )
        sniff_artifact(journal_path, ("journal",))
        replay = replay_journal(journal_path)
        snapshot = replay.snapshot
        log_events = snapshot.events
        corpus = replay.corpus_doc()
    if trace_path:
        snapshot = read_run(trace_path)
    if log_path:
        log_events = _read_jsonl(log_path, "log")
    if corpus_path:
        corpus = {"jobs": [], "summary": {}}
        for payload in _read_jsonl(corpus_path, "corpus"):
            if "summary" in payload and "job_id" not in payload:
                corpus["summary"] = payload["summary"]
            else:
                corpus["jobs"].append(payload)
    diff = None
    if baseline_trace_path:
        if snapshot is None:
            raise ValueError("--baseline-trace needs --trace to diff against")
        diff = diff_profiles(
            profile_from_snapshot(read_run(baseline_trace_path),
                                  label=baseline_trace_path),
            profile_from_snapshot(snapshot, label=trace_path or "candidate"),
        )
    return render_report_html(
        snapshot,
        log_events=log_events,
        corpus=corpus,
        diff=diff,
        title=title,
        generated=generated,
    )
