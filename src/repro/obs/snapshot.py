"""Portable, mergeable snapshots of a recorder's observations.

A :class:`Snapshot` is the process-boundary form of a
:class:`~repro.obs.recorder.Recorder`: counters, gauges, total wall
time — and, since the unified observability layer, the buffered
structured log events and the span forest, all as plain JSON types —
so it pickles/JSON-serializes cheaply and merges associatively.  The
corpus engine (:mod:`repro.corpus`) records each job under its own
recorder inside a worker process, snapshots it, ships the dict across
the ``ProcessPoolExecutor`` boundary, and merges all job snapshots
into the parent's recorder so one ``--stats`` view aggregates the
whole batch and one ``--log`` file carries the workers' events.

Merging follows the registry semantics: counters add, gauges keep the
maximum (a gauge is a high-water mark across jobs), wall times add.
Events concatenate *in order* (self's first, then the other's — never
reordered, never duplicated); span forests concatenate.  Because span
ids are recorder-scoped, every merge re-ids the incoming spans into
the receiving side's id space and rewrites the incoming events'
``span_id``/``parent_span_id`` with the same mapping, so a worker
event keeps pointing at the worker span that emitted it after the
graft — which is what lets a ``--log`` line from inside a worker
resolve against the parent's ``--trace`` file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .metrics import (
    Histogram,
    histograms_from_jsonable,
    merge_registry,
    registry_to_jsonable,
)
from .recorder import LabelKey, Recorder

__all__ = [
    "Snapshot",
    "labeled_to_jsonable",
    "labeled_from_jsonable",
    "merge_labeled",
]


def labeled_to_jsonable(
    labeled: Mapping[str, Mapping[LabelKey, float]]
) -> Dict[str, List[Dict[str, Any]]]:
    """The JSON form of a labeled-counter registry: per counter name, a
    list of ``{"labels": {...}, "value": v}`` rows sorted by label key —
    byte-stable regardless of insertion order."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for name in sorted(labeled):
        out[name] = [
            {"labels": dict(key), "value": labeled[name][key]}
            for key in sorted(labeled[name])
        ]
    return out


def labeled_from_jsonable(
    payload: Mapping[str, Any]
) -> Dict[str, Dict[LabelKey, float]]:
    """Rebuild the registry form from :func:`labeled_to_jsonable`."""
    out: Dict[str, Dict[LabelKey, float]] = {}
    for name, rows in payload.items():
        by_key: Dict[LabelKey, float] = {}
        for row in rows:
            key: LabelKey = tuple(
                sorted((str(k), str(v)) for k, v in row.get("labels", {}).items())
            )
            by_key[key] = by_key.get(key, 0) + float(row.get("value", 0))
        out[str(name)] = by_key
    return out


def merge_labeled(
    into: Dict[str, Dict[LabelKey, float]],
    other: Mapping[str, Mapping[LabelKey, float]],
) -> None:
    """Fold ``other`` into ``into`` in place (values add, like counters)."""
    for name, by_key in other.items():
        target = into.setdefault(name, {})
        for key, value in by_key.items():
            target[key] = target.get(key, 0) + value


def _copy_registry(registry: Mapping[str, Any]) -> Dict[str, Any]:
    """A deep copy of a metrics registry (via the JSON round-trip, so
    the copy never aliases the live recorder's mutable state)."""
    return {
        name: type(value).from_jsonable(value.to_jsonable())
        for name, value in registry.items()
    }


def _collect_ids(spans: List[Dict[str, Any]]) -> List[int]:
    ids: List[int] = []
    stack = list(spans)
    while stack:
        node = stack.pop()
        if node.get("id") is not None:
            ids.append(node["id"])
        stack.extend(node.get("children", ()))
    return ids


def _remap_spans(
    spans: List[Dict[str, Any]], id_map: Dict[int, int]
) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for node in spans:
        copied = dict(node)
        if copied.get("id") is not None:
            copied["id"] = id_map.get(copied["id"], copied["id"])
        if copied.get("parent") is not None:
            copied["parent"] = id_map.get(copied["parent"], copied["parent"])
        copied["children"] = _remap_spans(list(node.get("children", ())), id_map)
        out.append(copied)
    return out


def _remap_events(
    events: List[Dict[str, Any]], id_map: Dict[int, int]
) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    for event in events:
        copied = dict(event)
        for key in ("span_id", "parent_span_id"):
            if copied.get(key) is not None:
                copied[key] = id_map.get(copied[key], copied[key])
        out.append(copied)
    return out


@dataclass
class Snapshot:
    """Counters + gauges + wall time + events + spans of one recorded
    run, as plain JSON types.  Round-trips through :meth:`to_dict` /
    :meth:`from_dict`."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    wall_time_ns: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    labeled: Dict[str, Dict[LabelKey, float]] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    @classmethod
    def from_recorder(cls, recorder: Recorder) -> "Snapshot":
        """Capture the recorder's registries, events, spans, and total
        root-span time."""
        from .export import span_to_dict
        from .log import events_to_dicts

        return cls(
            counters=dict(recorder.counters),
            gauges=dict(recorder.gauges),
            wall_time_ns=recorder.total_duration_ns(),
            events=events_to_dicts(recorder),
            spans=[span_to_dict(root) for root in recorder.spans],
            labeled={name: dict(by_key) for name, by_key in recorder.labeled.items()},
            histograms=_copy_registry(recorder.histograms),
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready document (``from_dict`` round-trips it).
        Version 4 added the ``histograms`` registry; version 3 added
        ``labeled``.  Empty registries are omitted."""
        out: Dict[str, Any] = {
            "version": 4,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "wall_time_ns": int(self.wall_time_ns),
        }
        if self.labeled:
            out["labeled"] = labeled_to_jsonable(self.labeled)
        if self.histograms:
            out["histograms"] = registry_to_jsonable(self.histograms)
        if self.events:
            out["events"] = [dict(event) for event in self.events]
        if self.spans:
            out["spans"] = [dict(span) for span in self.spans]
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Snapshot":
        """Rebuild a snapshot from :meth:`to_dict` output.  Every
        registry is optional, so payloads that omit one — empty
        registries, or documents older than the registry — load with
        it empty; keys this version no longer has (the ``samples``
        series of older journals) are ignored."""
        return cls(
            counters={str(k): float(v) for k, v in dict(payload.get("counters", {})).items()},
            gauges={str(k): float(v) for k, v in dict(payload.get("gauges", {})).items()},
            wall_time_ns=int(payload.get("wall_time_ns", 0)),
            events=[dict(event) for event in payload.get("events", ())],
            spans=[dict(span) for span in payload.get("spans", ())],
            labeled=labeled_from_jsonable(payload.get("labeled", {})),
            histograms=histograms_from_jsonable(payload.get("histograms", {})),
        )

    @classmethod
    def merge_all(cls, snapshots: List["Snapshot"]) -> "Snapshot":
        """Fold many snapshots into one (left to right; the merge is
        associative, so shard captures combined in any grouping give
        the same counters).  An empty list merges to the empty
        snapshot."""
        merged = cls()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def without_replayable_state(self) -> "Snapshot":
        """A copy carrying only the registries — what a result cache
        should store, so a cache hit never replays stale log events or
        span trees as if the work had happened again.  The labeled and
        histogram registries merge like counters, so they stay."""
        return Snapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            wall_time_ns=self.wall_time_ns,
            labeled={name: dict(by_key) for name, by_key in self.labeled.items()},
            histograms=_copy_registry(self.histograms),
        )

    def _id_map_for(self, taken: List[int]) -> Tuple[Dict[int, int], int]:
        """A collision-free remapping of this snapshot's span ids into
        a space where ``taken`` ids are already in use."""
        base = max(taken) + 1 if taken else 0
        mapping: Dict[int, int] = {}
        for old in sorted(set(_collect_ids(self.spans))):
            mapping[old] = base
            base += 1
        return mapping, base

    def merge(self, other: "Snapshot") -> "Snapshot":
        """A new snapshot combining both: counters add, gauges max,
        wall times add, events/spans concatenate in order (the other
        side's span ids are re-numbered past this side's so the merged
        document stays collision-free)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            if name not in gauges or gauges[name] < value:
                gauges[name] = value
        labeled = {name: dict(by_key) for name, by_key in self.labeled.items()}
        merge_labeled(labeled, other.labeled)
        histograms = _copy_registry(self.histograms)
        merge_registry(histograms, other.histograms)
        id_map, _ = other._id_map_for(_collect_ids(self.spans))
        return Snapshot(
            counters=counters,
            gauges=gauges,
            wall_time_ns=self.wall_time_ns + other.wall_time_ns,
            events=[dict(event) for event in self.events]
            + _remap_events(other.events, id_map),
            spans=[dict(span) for span in self.spans]
            + _remap_spans(other.spans, id_map),
            labeled=labeled,
            histograms=histograms,
        )

    def merge_into(self, recorder: Recorder, prefix: str = "") -> None:
        """Fold this snapshot into a live recorder: counters add,
        gauges keep the maximum (optionally namespaced by ``prefix``);
        spans graft under the recorder's currently-open span (or as new
        roots) with fresh recorder-scoped ids; events append to the
        recorder's log buffer — when the recorder is logging at all —
        with their span references rewritten by the same id mapping."""
        from .export import span_from_dict
        from .log import LogEvent

        for name, value in self.counters.items():
            recorder.add(prefix + name, value)
        for name, value in self.gauges.items():
            recorder.gauge_max(prefix + name, value)
        # The flat counters above already include every labeled
        # contribution, so the labeled registry merges through the raw
        # path that leaves the flat table alone.
        for name, by_key in self.labeled.items():
            for key, value in by_key.items():
                recorder.add_labeled_raw(prefix + name, key, value)
        # Histogram buckets add; a prefix namespaces them like the flat
        # registries.
        merge_registry(
            recorder.histograms,
            {prefix + name: h for name, h in self.histograms.items()},
        )
        if not self.events and not self.spans:
            return
        id_map: Dict[int, int] = {
            old: recorder.claim_span_id()
            for old in sorted(set(_collect_ids(self.spans)))
        }
        anchor = recorder.active_span()
        anchor_id: Optional[int] = anchor.span_id if anchor is not None else None
        for payload in _remap_spans(self.spans, id_map):
            root = span_from_dict(payload)
            root.parent_id = anchor_id
            if anchor is not None:
                anchor.children.append(root)
            else:
                recorder.spans.append(root)
        if recorder.log_level is None:
            return
        for payload in _remap_events(self.events, id_map):
            event = LogEvent.from_dict(payload)
            if event.span_id is None and anchor_id is not None:
                # An event emitted outside any worker span still lands
                # somewhere resolvable: the span the graft hangs under.
                event.span_id = anchor_id
                event.parent_span_id = (
                    anchor.parent_id if anchor is not None else None
                )
            recorder.events.append(event)
