"""The instrumentation core: context-local span trees and counters.

One :class:`Recorder` holds everything observed during one run — a tree
of timed :class:`Span` objects plus flat counter/gauge registries.  The
active recorder lives in a :class:`contextvars.ContextVar`, so

* runs are isolated per context (no cross-test or cross-thread
  leakage);
* when no recorder is installed every entry point degrades to a single
  truthiness check: :func:`span` returns a shared immutable null span,
  :func:`add` / :func:`set_gauge` return immediately.

Instrumented code therefore never checks a flag itself::

    with obs.span("ptime.copying_product") as sp:
        nfa = build_product(...)
        sp.set("states", len(nfa.states))
        obs.add("ptime.product_states", len(nfa.states))

Counter *names* are dotted, subsystem-first (``nta.created``,
``mso.compile.cache_hits``, ``lint.memo.hits``), so exports group
naturally.  Heavy loops should count locally and report once at span
end — the enabled-mode overhead is then one span per phase, not one
call per state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import Histogram, SampleSeries

__all__ = [
    "Span",
    "Recorder",
    "LabelKey",
    "label_key",
    "recording",
    "current",
    "enabled",
    "span",
    "add",
    "set_gauge",
    "gauge_max",
    "observe",
    "mark",
    "sample",
    "timed",
    "NULL_SPAN",
]

#: The canonical key of one label combination: ``(("rule", "q0/recipe"),
#: ("site", "copying_nfa"))`` — label items sorted by label name, values
#: stringified, so the same combination always hashes (and serializes)
#: identically regardless of call-site keyword order.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """The canonical registry key for a label dict."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Span:
    """One timed phase: name, wall-clock bounds, attributes, children.

    Durations are integer nanoseconds (``time.perf_counter_ns``);
    :attr:`duration_s` converts.  A span still open has ``end_ns is
    None``.

    A span opened under a recorder carries a recorder-scoped
    :attr:`span_id` (and its parent's id) so log events and trace
    exports can reference it; a span built by hand has ``span_id is
    None`` until an exporter assigns one.
    """

    __slots__ = ("name", "start_ns", "end_ns", "attrs", "children",
                 "span_id", "parent_id")

    def __init__(self, name: str, start_ns: Optional[int] = None) -> None:
        self.name = name
        self.start_ns = time.perf_counter_ns() if start_ns is None else start_ns
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return end - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute (automaton sizes, counts, verdicts)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc: object) -> None:
        rec = _RECORDER.get()
        if rec is not None:
            rec._close(self)

    def __repr__(self) -> str:
        return "Span(%r, %.3fms, %d children)" % (
            self.name,
            self.duration_ns / 1e6,
            len(self.children),
        )


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op.

    A single instance (:data:`NULL_SPAN`) is returned by :func:`span`
    whenever no recorder is active, so disabled instrumentation costs
    one ContextVar read and a truthiness check — nothing is allocated.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_SPAN"

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Recorder:
    """Collected observations of one run.

    ``events`` is the structured log buffer (see :mod:`repro.obs.log`);
    it only fills when :attr:`log_level` is set — a recorder installed
    purely for spans/counters never pays for event objects.
    """

    __slots__ = ("spans", "counters", "gauges", "labeled", "events",
                 "histograms", "samples",
                 "log_level", "max_events", "_stack", "_next_span_id")

    def __init__(self, log_level: Optional[int] = None,
                 max_events: Optional[int] = None) -> None:
        self.spans: List[Span] = []  # top-level (root) spans, in order
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        # Labeled (dimensional) counters live in their own registry,
        # keyed name -> label-combination -> value, so the flat
        # ``counters`` table and everything reading it stay untouched.
        self.labeled: Dict[str, Dict[LabelKey, float]] = {}
        # Distribution registries (see repro.obs.metrics): separate
        # from the flat counters so observing a histogram can never
        # perturb the exact work-counter comparisons.
        self.histograms: Dict[str, Histogram] = {}
        self.samples: Dict[str, SampleSeries] = {}
        self.events: List[Any] = []  # LogEvent, kept untyped to avoid a cycle
        self.log_level = log_level  # None = event logging off
        # Event-buffer bound: with a cap, the oldest event is dropped
        # (and ``obs.events.dropped`` counted) when a new one arrives
        # at capacity — long-running daemons keep the recent tail.
        self.max_events = max_events  # None = unbounded
        self._stack: List[Span] = []
        self._next_span_id = 0

    # -- span plumbing (driven by the module-level API) -------------------

    def _open(self, name: str) -> Span:
        opened = Span(name)
        opened.span_id = self._next_span_id
        self._next_span_id += 1
        if self._stack:
            parent = self._stack[-1]
            opened.parent_id = parent.span_id
            parent.children.append(opened)
        else:
            self.spans.append(opened)
        self._stack.append(opened)
        return opened

    def claim_span_id(self) -> int:
        """Reserve the next recorder-scoped span id (used when grafting
        spans recorded elsewhere, e.g. worker snapshots)."""
        claimed = self._next_span_id
        self._next_span_id += 1
        return claimed

    def active_span(self) -> Optional[Span]:
        """The innermost span currently open, if any."""
        return self._stack[-1] if self._stack else None

    def _close(self, closing: Span) -> None:
        closing.end_ns = time.perf_counter_ns()
        # Unwind to the matching frame so a missed __exit__ deeper down
        # (e.g. an exception swallowed around a with-block) cannot
        # corrupt the nesting of outer spans.
        while self._stack:
            top = self._stack.pop()
            if top is closing:
                break
            if top.end_ns is None:
                top.end_ns = closing.end_ns

    # -- registries --------------------------------------------------------

    def add(self, name: str, value: float = 1, **labels: Any) -> None:
        """Increment the flat counter; with labels, also credit the
        labeled registry.  The flat total is always the sum of every
        ``add`` regardless of labels, so attribution never changes the
        numbers the bench gate and golden files compare."""
        self.counters[name] = self.counters.get(name, 0) + value
        if labels:
            by_key = self.labeled.setdefault(name, {})
            key = label_key(labels)
            by_key[key] = by_key.get(key, 0) + value

    def add_labeled_raw(self, name: str, key: LabelKey, value: float) -> None:
        """Credit the labeled registry directly *without* touching the
        flat counter — the merge path, where the flat totals already
        include the labeled contributions."""
        by_key = self.labeled.setdefault(name, {})
        by_key[key] = by_key.get(key, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        if name not in self.gauges or self.gauges[name] < value:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the named log₂-bucket histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def sample(self, name: str, value: float, ts: Optional[float] = None) -> None:
        """Append one periodic sample to the named time series."""
        series = self.samples.get(name)
        if series is None:
            series = self.samples[name] = SampleSeries()
        series.sample(value, ts)

    # -- convenience -------------------------------------------------------

    def total_duration_ns(self) -> int:
        return sum(root.duration_ns for root in self.spans)

    def find(self, name: str) -> Optional[Span]:
        """The first span (depth-first) with the given name."""
        stack = list(reversed(self.spans))
        while stack:
            node = stack.pop()
            if node.name == name:
                return node
            stack.extend(reversed(node.children))
        return None

    def __repr__(self) -> str:
        return "Recorder(spans=%d, counters=%d, gauges=%d)" % (
            len(self.spans),
            len(self.counters),
            len(self.gauges),
        )


_RECORDER: ContextVar[Optional[Recorder]] = ContextVar("repro_obs_recorder", default=None)


@contextmanager
def recording(log_level: Optional[int] = None,
              max_events: Optional[int] = None) -> Iterator[Recorder]:
    """Install a fresh recorder for the dynamic extent of the block.

    Nested ``recording()`` blocks shadow the outer recorder (the outer
    one sees nothing from the inner block), matching the context-local
    isolation the tests rely on.  Pass ``log_level`` (see
    :mod:`repro.obs.log`) to also buffer structured log events at or
    above that level; ``max_events`` bounds the event buffer (oldest
    dropped, ``obs.events.dropped`` counted) for long-running scopes.
    """
    rec = Recorder(log_level=log_level, max_events=max_events)
    token = _RECORDER.set(rec)
    try:
        yield rec
    finally:
        _RECORDER.reset(token)


def current() -> Optional[Recorder]:
    """The active recorder, or ``None`` when instrumentation is off."""
    return _RECORDER.get()


def enabled() -> bool:
    """Whether a recorder is active in this context."""
    return _RECORDER.get() is not None


def span(name: str) -> Any:
    """Open a span under the active recorder (or the shared null span).

    Usable both as a context manager and, when the caller needs the
    handle, via ``with obs.span(...) as sp: sp.set(...)``.
    """
    rec = _RECORDER.get()
    if rec is None:
        return NULL_SPAN
    return rec._open(name)


def add(name: str, value: float = 1, **labels: Any) -> None:
    """Increment a counter on the active recorder (no-op when off).

    Keyword arguments beyond ``value`` are labels: the increment also
    lands in the recorder's labeled registry under the (sorted,
    stringified) label combination — ``obs.add("ptime.product_states",
    n, rule="q0/recipe", site="copying_nfa")`` — while the flat counter
    sees the same total it always did.
    """
    rec = _RECORDER.get()
    if rec is not None:
        rec.add(name, value, **labels)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active recorder (no-op when off)."""
    rec = _RECORDER.get()
    if rec is not None:
        rec.set_gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a gauge to ``value`` if it is below it (no-op when off)."""
    rec = _RECORDER.get()
    if rec is not None:
        rec.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    """Record a value into a latency/size histogram (no-op when off).

    Same zero-overhead contract as :func:`add`: one ContextVar read and
    a truthiness check when no recorder is installed.  Histograms live
    in their own registry, so observing never changes the flat counters
    the bench gate and golden files compare byte-for-byte.
    """
    rec = _RECORDER.get()
    if rec is not None:
        rec.observe(name, value)


def sample(name: str, value: float) -> None:
    """Append a periodic sample to a bounded time series (no-op when
    off).  Sampled series feed the ``--metrics`` JSONL timeline."""
    rec = _RECORDER.get()
    if rec is not None:
        rec.sample(name, value)

