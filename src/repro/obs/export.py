"""Exporters for recorded runs: text tree and Chrome trace_event.

Two views of one :class:`~repro.obs.recorder.Recorder`:

* :func:`render_text` — an indented span tree with per-phase wall time,
  percentage of the enclosing span, and attributes, followed by the
  counter/gauge tables.  This is what ``python -m repro profile``
  prints.
* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON object
  format (complete ``"X"`` events plus one metadata event), loadable in
  ``chrome://tracing`` and Perfetto.  Span ids/parents ride in ``args``
  so :func:`spans_from_chrome_trace` can rebuild the tree.

Span ids are the *recorder's own* (:attr:`repro.obs.recorder.Span.span_id`)
whenever present — the same ids structured log events reference — so a
``--log`` JSONL line joins against a ``--trace`` file by ``span_id``.
Buffered log events export as Chrome instant (``"i"``) events on the
span timeline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .recorder import Recorder, Span

__all__ = [
    "render_text",
    "span_to_dict",
    "span_from_dict",
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_from_chrome_trace",
]


def _format_duration(ns: int) -> str:
    if ns >= 1_000_000_000:
        return "%.3f s" % (ns / 1e9)
    if ns >= 1_000_000:
        return "%.2f ms" % (ns / 1e6)
    return "%.1f us" % (ns / 1e3)


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join("%s=%s" % (k, attrs[k]) for k in sorted(attrs))
    return "  {%s}" % inner


def _render_span(span: Span, parent_ns: Optional[int], indent: int, lines: List[str]) -> None:
    share = ""
    if parent_ns:
        share = " (%4.1f%%)" % (100.0 * span.duration_ns / parent_ns)
    lines.append(
        "%s%s  %s%s%s"
        % ("  " * indent, span.name, _format_duration(span.duration_ns), share,
           _format_attrs(span.attrs))
    )
    for child in span.children:
        _render_span(child, span.duration_ns, indent + 1, lines)


def render_text(recorder: Recorder) -> str:
    """The human-readable report: span tree, counters, gauges."""
    lines: List[str] = []
    for root in recorder.spans:
        _render_span(root, None, 0, lines)
    if recorder.counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in recorder.counters)
        for name in sorted(recorder.counters):
            value = recorder.counters[name]
            shown = "%d" % value if float(value).is_integer() else "%g" % value
            lines.append("  %-*s  %s" % (width, name, shown))
    if recorder.gauges:
        lines.append("")
        lines.append("gauges:")
        width = max(len(name) for name in recorder.gauges)
        for name in sorted(recorder.gauges):
            lines.append("  %-*s  %g" % (width, name, recorder.gauges[name]))
    if recorder.histograms:
        lines.append("")
        lines.append("histograms:")
        width = max(len(name) for name in recorder.histograms)
        for name in sorted(recorder.histograms):
            stats = recorder.histograms[name].summary()
            lines.append(
                "  %-*s  n=%d p50=%g p90=%g p99=%g max=%g"
                % (width, name, int(stats["count"]), stats["p50"],
                   stats["p90"], stats["p99"], stats["max"])
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Span JSON (the form Snapshot documents carry)
# ---------------------------------------------------------------------------


def span_to_dict(span: Span) -> Dict[str, Any]:
    """One span subtree as plain JSON types (ids included)."""
    return {
        "name": span.name,
        "id": span.span_id,
        "parent": span.parent_id,
        "start_ns": span.start_ns,
        "duration_ns": span.duration_ns,
        "attrs": dict(span.attrs),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: Dict[str, Any]) -> Span:
    """Rebuild a span subtree from :func:`span_to_dict` output."""
    span = Span(payload["name"], start_ns=payload["start_ns"])
    span.end_ns = payload["start_ns"] + payload["duration_ns"]
    span.span_id = payload.get("id")
    span.parent_id = payload.get("parent")
    span.attrs = dict(payload.get("attrs", {}))
    span.children = [span_from_dict(child) for child in payload.get("children", ())]
    return span


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def to_chrome_trace(recorder: Recorder, process_name: str = "repro") -> Dict[str, Any]:
    """The ``trace_event`` JSON object format.

    Every span becomes a complete (``"ph": "X"``) event with
    microsecond timestamps relative to the earliest span; buffered log
    events become instant (``"i"``) events at their emission point;
    counters become one ``"C"`` event each at the end of the run so
    Perfetto draws them as a final value track.

    Span ``args`` carry ``id``/``parent`` — the recorder's own span
    ids, the same ones ``--log`` JSONL events reference — so
    :func:`spans_from_chrome_trace` can rebuild the tree and a log
    line's ``span_id`` resolves against the trace.  Spans built by
    hand (without a recorder) get fresh ids past the used range.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    origin_ns = min((root.start_ns for root in recorder.spans), default=0)

    used: List[int] = []

    def collect(span: Span) -> None:
        if span.span_id is not None:
            used.append(span.span_id)
        for child in span.children:
            collect(child)

    for root in recorder.spans:
        collect(root)
    next_id = [max(used) + 1 if used else 0]

    def emit(span: Span, parent_id: Optional[int]) -> None:
        if span.span_id is not None:
            span_id = span.span_id
        else:
            span_id = next_id[0]
            next_id[0] += 1
        args: Dict[str, Any] = dict(span.attrs)
        args["id"] = span_id
        if parent_id is not None:
            args["parent"] = parent_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start_ns - origin_ns) / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
        for child in span.children:
            emit(child, span_id)

    for root in recorder.spans:
        emit(root, None)
    end_ts = max(
        (event["ts"] + event["dur"] for event in events if event["ph"] == "X"),
        default=0.0,
    )
    for record in recorder.events:
        payload = record.to_dict()
        perf_ns = getattr(record, "perf_ns", None)
        events.append(
            {
                "name": payload["logger"] or "log",
                "ph": "i",
                "ts": (perf_ns - origin_ns) / 1e3 if perf_ns is not None else end_ts,
                "pid": 1,
                "tid": 1,
                "s": "t",
                "args": payload,
            }
        )
    for name in sorted(recorder.counters):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": end_ts,
                "pid": 1,
                "tid": 1,
                "args": {"value": recorder.counters[name]},
            }
        )
    if recorder.labeled:
        from .snapshot import labeled_to_jsonable

        # The attribution registry rides as one metadata event, so a
        # ``--trace`` file is a complete ``trace-diff`` input; viewers
        # that don't know the name ignore metadata events.
        events.append(
            {
                "name": "repro_labeled",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"labeled": labeled_to_jsonable(recorder.labeled)},
            }
        )
    if recorder.histograms:
        # Distribution registry as a second metadata event: buckets
        # travel whole, so the HTML report can draw the histogram bars
        # rather than just quoting the quantiles.
        events.append(
            {
                "name": "repro_histograms",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {
                    "histograms": {
                        name: histogram.to_jsonable()
                        for name, histogram in sorted(
                            recorder.histograms.items()
                        )
                    }
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: Recorder, path: str, process_name: str = "repro") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # sort_keys keeps the file byte-stable for golden diffs and CI
        # greps; the trace_event format carries no key-order semantics.
        json.dump(to_chrome_trace(recorder, process_name), handle,
                  indent=2, sort_keys=True)


def spans_from_chrome_trace(payload: Dict[str, Any]) -> List[Span]:
    """Rebuild the span forest from :func:`to_chrome_trace` output
    (the ``id``/``parent`` args carry the tree; counters are ignored)."""
    by_id: Dict[int, Span] = {}
    roots: List[Span] = []
    parents: List[Dict[str, Any]] = []
    for event in payload.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("id")
        parent_id = args.pop("parent", None)
        start_ns = int(round(event["ts"] * 1e3))
        span = Span(event["name"], start_ns=start_ns)
        span.end_ns = start_ns + int(round(event["dur"] * 1e3))
        span.span_id = span_id
        span.parent_id = parent_id
        span.attrs = args
        by_id[span_id] = span
        parents.append({"id": span_id, "parent": parent_id})
    for link in parents:
        span = by_id[link["id"]]
        if link["parent"] is None:
            roots.append(span)
        else:
            by_id[link["parent"]].children.append(span)
    return roots
