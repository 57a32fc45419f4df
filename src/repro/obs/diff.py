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

A profile is built from a :class:`~repro.obs.snapshot.Snapshot`, so
``trace-diff`` takes whatever :func:`repro.obs.export.read_run` reads:
a Chrome trace written by ``--trace``, a ``Snapshot.to_dict`` document
(such as the serve ``trace`` op's ``fields.snapshot``), or a journal
directory or segment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .attr import format_label_key
from .export import span_from_dict
from .recorder import LabelKey, Recorder, Span
from .snapshot import Snapshot

__all__ = [
    "SpanStat",
    "RunProfile",
    "ProfileDelta",
    "ProfileDiff",
    "profile_from_recorder",
    "profile_from_snapshot",
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


def profile_from_snapshot(snapshot: Snapshot, label: str = "") -> RunProfile:
    """One run's comparable shape, from its :class:`Snapshot`."""
    profile = RunProfile(label=label)
    for root in snapshot.spans:
        _walk_spans(profile, span_from_dict(root), "")
    profile.counters = dict(snapshot.counters)
    profile.gauges = dict(snapshot.gauges)
    profile.labeled = {
        name: dict(by_key) for name, by_key in snapshot.labeled.items()
    }
    return profile


def profile_from_recorder(recorder: Recorder, label: str = "") -> RunProfile:
    return profile_from_snapshot(Snapshot.from_recorder(recorder), label)


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
