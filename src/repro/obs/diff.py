"""Structural diffing of two exported runs: ``repro trace-diff``.

Two runs of the same pipeline produce span trees with the same *names*
but different ids and timings.  This module aligns them structurally:
every span is keyed by its **name-path** (``check/ptime.is_copying/
ptime.copying_product``), occurrences aggregate into one
:class:`SpanStat` per path, and the diff reports, worst divergence
first,

* duration deltas per aligned span path (plus paths present on only
  one side — a structural change in the pipeline itself);
* counter and gauge deltas;
* attribution deltas from the labeled registry — *which rule / pass /
  formula node* the counter delta is concentrated in.

Inputs are whatever the repo already exports: a Chrome trace written
by ``--trace``, a ``repro profile --json`` / ``Snapshot.to_dict``
document, or a crash-safe journal.  :func:`load_run_profile` sniffs the
format.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .attr import format_label_key
from .recorder import LabelKey, Recorder, Span
from .snapshot import labeled_from_jsonable, merge_labeled

__all__ = [
    "SpanStat",
    "RunProfile",
    "ProfileDelta",
    "ProfileDiff",
    "profile_from_recorder",
    "profile_from_spans",
    "profile_from_payload",
    "load_run_profile",
    "diff_profiles",
    "render_diff",
]


@dataclass
class SpanStat:
    """All occurrences of one span name-path, aggregated."""

    path: str
    count: int = 0
    duration_ns: int = 0


@dataclass
class RunProfile:
    """One run reduced to its comparable shape: span-path aggregates
    plus the counter/gauge/labeled registries."""

    label: str = ""
    spans: Dict[str, SpanStat] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    labeled: Dict[str, Dict[LabelKey, float]] = field(default_factory=dict)

    def record_span(self, path: str, duration_ns: int) -> None:
        stat = self.spans.setdefault(path, SpanStat(path=path))
        stat.count += 1
        stat.duration_ns += duration_ns


def _walk_spans(profile: RunProfile, span: Span, prefix: str) -> None:
    path = prefix + "/" + span.name if prefix else span.name
    profile.record_span(path, span.duration_ns)
    for child in span.children:
        _walk_spans(profile, child, path)


def profile_from_spans(spans: List[Span], label: str = "") -> RunProfile:
    profile = RunProfile(label=label)
    for root in spans:
        _walk_spans(profile, root, "")
    return profile


def profile_from_recorder(recorder: Recorder, label: str = "") -> RunProfile:
    profile = profile_from_spans(recorder.spans, label=label)
    profile.counters = dict(recorder.counters)
    profile.gauges = dict(recorder.gauges)
    profile.labeled = {
        name: dict(by_key) for name, by_key in recorder.labeled.items()
    }
    return profile


def _profile_from_chrome(payload: Mapping[str, Any], label: str) -> RunProfile:
    from .export import spans_from_chrome_trace

    profile = profile_from_spans(
        spans_from_chrome_trace(dict(payload)), label=label
    )
    for event in payload.get("traceEvents", ()):
        phase = event.get("ph")
        if phase == "C":
            profile.counters[str(event["name"])] = float(
                event.get("args", {}).get("value", 0)
            )
        elif phase == "M" and event.get("name") == "repro_labeled":
            merge_labeled(
                profile.labeled,
                labeled_from_jsonable(event.get("args", {}).get("labeled", {})),
            )
    return profile


def profile_from_payload(payload: Mapping[str, Any], label: str = "") -> RunProfile:
    """Build a profile from any exported-run JSON document the repo
    writes (Chrome trace, profile/Snapshot document)."""
    from .export import span_from_dict

    if "traceEvents" in payload:
        return _profile_from_chrome(payload, label)
    # A ``repro profile`` export / Snapshot.to_dict document.
    profile = profile_from_spans(
        [span_from_dict(dict(span)) for span in payload.get("spans", ())],
        label=label,
    )
    profile.counters = {
        str(k): float(v) for k, v in (payload.get("counters") or {}).items()
    }
    profile.gauges = {
        str(k): float(v) for k, v in (payload.get("gauges") or {}).items()
    }
    profile.labeled = labeled_from_jsonable(payload.get("labeled") or {})
    return profile


def load_run_profile(path: str, label: str = "") -> RunProfile:
    """Read and sniff one exported-run artifact.

    Accepts a Chrome trace, a profile/Snapshot export, or a crash-safe
    journal (a ``serve --journal-dir`` / ``batch --journal`` directory,
    or one segment file) — a journal is replayed through
    :func:`repro.obs.journal.replay_journal` and its merged Snapshot
    profiled, so ``trace-diff`` can compare a dead process's run
    against a live trace.  Anything else — notably the
    observability layer's *own* line-oriented artifacts (a ``--log``
    JSONL, a batch status file) —
    raises a ValueError naming what the file actually is and what
    formats are expected, instead of a JSON-decode traceback."""
    if os.path.isdir(path):
        return _profile_from_journal(path, label)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except ValueError:
        from .metrics import sniff_jsonl_kind

        if sniff_jsonl_kind(text) == "obs-journal":
            return _profile_from_journal(path, label)
        raise ValueError(
            "%s: %s" % (path, _describe_non_profile(text))
        ) from None
    if not isinstance(payload, dict):
        raise ValueError("%s: not a JSON object" % path)
    return profile_from_payload(payload, label=label or path)


def _profile_from_journal(path: str, label: str = "") -> RunProfile:
    """Replay a journal and profile its merged Snapshot."""
    from .journal import replay_journal

    replay = replay_journal(path)
    payload = replay.snapshot.to_dict()
    return profile_from_payload(payload, label=label or path)


def _describe_non_profile(text: str) -> str:
    """Why a non-JSON file is not a run profile, by sniffing."""
    from .metrics import sniff_jsonl_kind

    expected = "expected a Chrome trace or a profile/Snapshot export"
    kind = sniff_jsonl_kind(text)
    if kind is not None:
        return "this is a %r JSONL artifact, not a run profile; %s" % (
            kind, expected,
        )
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first = stripped.splitlines()[0] if stripped.splitlines() else ""
        try:
            json.loads(first)
        except ValueError:
            pass
        else:
            return (
                "this looks like line-oriented JSONL (e.g. a --log "
                "file), not a run profile; %s" % expected
            )
    if stripped.startswith("# TYPE ") or stripped.startswith("# HELP "):
        return (
            "this looks like an OpenMetrics exposition (--metrics "
            "output), not a run profile; %s" % expected
        )
    return "not valid JSON; %s" % expected


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


@dataclass
class ProfileDelta:
    """One aligned metric's divergence between run A and run B."""

    kind: str  # "span" | "counter" | "gauge" | "attribution"
    key: str  # span path, counter name, or "counter{labels}"
    a: Optional[float]  # None = absent on that side
    b: Optional[float]
    unit: str = ""  # "ns" for spans, "" for registries

    @property
    def delta(self) -> float:
        return (self.b or 0.0) - (self.a or 0.0)

    @property
    def status(self) -> str:
        if self.a is None:
            return "only-b"
        if self.b is None:
            return "only-a"
        return "changed" if self.delta else "same"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "a": self.a,
            "b": self.b,
            "delta": self.delta,
            "status": self.status,
            "unit": self.unit,
        }


@dataclass
class ProfileDiff:
    """The full structural diff, each section worst-divergence first."""

    a_label: str
    b_label: str
    spans: List[ProfileDelta] = field(default_factory=list)
    counters: List[ProfileDelta] = field(default_factory=list)
    gauges: List[ProfileDelta] = field(default_factory=list)
    attribution: List[ProfileDelta] = field(default_factory=list)

    @property
    def diverging(self) -> List[ProfileDelta]:
        return [
            delta
            for section in (self.spans, self.counters, self.gauges, self.attribution)
            for delta in section
            if delta.status != "same"
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a_label,
            "b": self.b_label,
            "spans": [delta.to_dict() for delta in self.spans],
            "counters": [delta.to_dict() for delta in self.counters],
            "gauges": [delta.to_dict() for delta in self.gauges],
            "attribution": [delta.to_dict() for delta in self.attribution],
        }


def _registry_deltas(
    kind: str, a: Mapping[str, float], b: Mapping[str, float]
) -> List[ProfileDelta]:
    deltas = [
        ProfileDelta(kind=kind, key=name, a=a.get(name), b=b.get(name))
        for name in sorted(set(a) | set(b))
    ]
    deltas.sort(key=lambda d: (-abs(d.delta), d.key))
    return deltas


def _attribution_deltas(
    a: Mapping[str, Mapping[LabelKey, float]],
    b: Mapping[str, Mapping[LabelKey, float]],
) -> List[ProfileDelta]:
    deltas: List[ProfileDelta] = []
    for name in sorted(set(a) | set(b)):
        a_keys = a.get(name, {})
        b_keys = b.get(name, {})
        for key in sorted(set(a_keys) | set(b_keys)):
            deltas.append(
                ProfileDelta(
                    kind="attribution",
                    key="%s{%s}" % (name, format_label_key(key)),
                    a=a_keys.get(key),
                    b=b_keys.get(key),
                )
            )
    deltas.sort(key=lambda d: (-abs(d.delta), d.key))
    return deltas


def diff_profiles(a: RunProfile, b: RunProfile) -> ProfileDiff:
    """Align by span name-path / registry name and sort every section
    by absolute divergence, worst first."""
    span_deltas = [
        ProfileDelta(
            kind="span",
            key=path,
            a=float(a.spans[path].duration_ns) if path in a.spans else None,
            b=float(b.spans[path].duration_ns) if path in b.spans else None,
            unit="ns",
        )
        for path in sorted(set(a.spans) | set(b.spans))
    ]
    span_deltas.sort(key=lambda d: (-abs(d.delta), d.key))
    return ProfileDiff(
        a_label=a.label or "A",
        b_label=b.label or "B",
        spans=span_deltas,
        counters=_registry_deltas("counter", a.counters, b.counters),
        gauges=_registry_deltas("gauge", a.gauges, b.gauges),
        attribution=_attribution_deltas(a.labeled, b.labeled),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _format_side(delta: ProfileDelta, value: Optional[float]) -> str:
    if value is None:
        return "-"
    if delta.unit == "ns":
        if value >= 1e9:
            return "%.3fs" % (value / 1e9)
        if value >= 1e6:
            return "%.2fms" % (value / 1e6)
        return "%.1fus" % (value / 1e3)
    return "%d" % value if float(value).is_integer() else "%g" % value


def _format_delta(delta: ProfileDelta) -> str:
    if delta.status == "only-a":
        return "removed"
    if delta.status == "only-b":
        return "added"
    if delta.unit == "ns":
        return "%+.2fms" % (delta.delta / 1e6)
    magnitude = delta.delta
    return ("%+d" % magnitude if float(magnitude).is_integer()
            else "%+g" % magnitude)


_SECTION_TITLES = (
    ("spans", "span durations (worst divergence first)"),
    ("counters", "counters"),
    ("gauges", "gauges"),
    ("attribution", "attribution (labeled counters)"),
)


def _section_rows(
    deltas: List[ProfileDelta], limit: int, include_same: bool = False
) -> Tuple[List[ProfileDelta], int]:
    rows = [d for d in deltas if include_same or d.status != "same"]
    hidden = max(len(rows) - limit, 0) if limit else 0
    return (rows[:limit] if limit else rows), hidden


def render_diff_text(diff: ProfileDiff, limit: int = 15) -> str:
    lines = ["trace-diff: %s -> %s" % (diff.a_label, diff.b_label)]
    diverging = diff.diverging
    lines.append(
        "%d diverging metric%s"
        % (len(diverging), "" if len(diverging) == 1 else "s")
    )
    for attr_name, title in _SECTION_TITLES:
        rows, hidden = _section_rows(getattr(diff, attr_name), limit)
        if not rows:
            continue
        lines.append("")
        lines.append("%s:" % title)
        width = min(max(len(row.key) for row in rows), 64)
        for row in rows:
            lines.append(
                "  %-*s  %10s -> %-10s  %s"
                % (width, row.key[:64], _format_side(row, row.a),
                   _format_side(row, row.b), _format_delta(row))
            )
        if hidden:
            lines.append("  ... %d more" % hidden)
    if not diverging:
        lines.append("")
        lines.append("runs are structurally identical.")
    return "\n".join(lines) + "\n"


def render_diff_markdown(diff: ProfileDiff, limit: int = 15) -> str:
    lines = ["# Trace diff", ""]
    lines.append("Comparing `%s` (A) against `%s` (B)." % (diff.a_label, diff.b_label))
    diverging = diff.diverging
    lines.append("")
    lines.append(
        "**%d diverging metric%s.**"
        % (len(diverging), "" if len(diverging) == 1 else "s")
    )
    for attr_name, title in _SECTION_TITLES:
        rows, hidden = _section_rows(getattr(diff, attr_name), limit)
        if not rows:
            continue
        lines.extend(["", "## %s" % title.capitalize(), ""])
        lines.append("| key | A | B | delta |")
        lines.append("| --- | ---: | ---: | ---: |")
        for row in rows:
            lines.append(
                "| `%s` | %s | %s | %s |"
                % (row.key, _format_side(row, row.a),
                   _format_side(row, row.b), _format_delta(row))
            )
        if hidden:
            lines.append("| _... %d more_ | | | |" % hidden)
    return "\n".join(lines) + "\n"


def render_diff(diff: ProfileDiff, fmt: str = "text", limit: int = 15) -> str:
    if fmt == "json":
        return json.dumps(diff.to_dict(), indent=2) + "\n"
    if fmt == "markdown":
        return render_diff_markdown(diff, limit)
    return render_diff_text(diff, limit)
