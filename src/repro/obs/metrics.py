"""Live-metrics primitives: log₂ histograms and sampled gauges.

The counters and gauges of :mod:`repro.obs.recorder` are *aggregates*:
one number per name, known only after the run.  A long-running audit
service (and any before/after performance claim about the PTIME /
EXPTIME hot paths) needs *distributions* and *time series*:

* :class:`Histogram` — a fixed **log₂-bucket** latency/size histogram.
  Bucket ``i`` covers ``(2^(i-1), 2^i]`` (bucket 0 is ``(-inf, 1]``),
  so 64 buckets span everything from single states to 2⁶⁴, the bucket
  index is one ``bit_length`` call, and two histograms merge by adding
  bucket counts — associative and loss-free across the corpus
  ``ProcessPool`` boundary.  ``p50/p90/p99`` come from linear
  interpolation inside the winning bucket, clamped to the observed
  ``min``/``max``.
* :class:`SampleSeries` — a bounded time series of periodic gauge
  samples (wall-clock ``ts`` + value), the backing store of the
  ``--metrics`` JSONL timeline.

Both serialize to plain JSON with **deterministically ordered
keys** (bucket lists sorted by upper bound, registry maps sorted by
name), so two runs of the same work produce byte-identical exposition
regardless of ``PYTHONHASHSEED`` or insertion order.

Exposition: :func:`render_openmetrics` writes the Prometheus /
OpenMetrics text format (cumulative ``le`` buckets, ``_sum``/
``_count``, terminating ``# EOF``) and :func:`validate_openmetrics` is
the strict parser CI runs against it.  :func:`write_timeline_jsonl`
writes the sampled series as a self-identifying JSONL timeline
(header line ``{"kind": "metrics-timeline", ...}``), which
``trace-diff``/``explain`` recognize and reject with a clear message
instead of a traceback.
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO, Tuple, Union

__all__ = [
    "Histogram",
    "SampleSeries",
    "bucket_index",
    "bucket_upper_bound",
    "merge_registry",
    "registry_to_jsonable",
    "histograms_from_jsonable",
    "samples_from_jsonable",
    "render_openmetrics",
    "validate_openmetrics",
    "metric_family_name",
    "TIMELINE_KIND",
    "write_timeline_jsonl",
    "read_timeline_jsonl",
    "sniff_jsonl_kind",
    "MAX_BUCKET",
    "DEFAULT_SERIES_MAXLEN",
]

#: Bucket indices are clamped to this, so the sparse bucket table has a
#: fixed, finite key space (values beyond 2**64 land in the top bucket).
MAX_BUCKET = 64

#: How many trailing samples a :class:`SampleSeries` retains.
DEFAULT_SERIES_MAXLEN = 512

#: The ``kind`` header identifying a metrics timeline JSONL file.
TIMELINE_KIND = "metrics-timeline"


def bucket_index(value: float) -> int:
    """The log₂ bucket of ``value``: 0 for anything ≤ 1, else
    ``ceil(log2(value))``, clamped to :data:`MAX_BUCKET`."""
    if value <= 1.0 or value != value:  # NaN observes into bucket 0
        return 0
    if math.isinf(value):
        return MAX_BUCKET
    index = (int(math.ceil(value)) - 1).bit_length()
    return index if index < MAX_BUCKET else MAX_BUCKET


def bucket_upper_bound(index: int) -> float:
    """The inclusive upper bound of bucket ``index`` (``2**index``)."""
    return float(2 ** index)


class Histogram:
    """A mergeable fixed-log₂-bucket histogram (see the module doc for
    the bucket scheme)."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: Dict[int, int] = {}  # sparse: index -> count

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into self (bucket counts add — associative)."""
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def quantile(self, q: float) -> float:
        """An estimate of the ``q``-quantile by linear interpolation
        inside the winning bucket, clamped to the observed range."""
        if self.count == 0:
            return 0.0
        assert self.minimum is not None and self.maximum is not None
        q = min(max(q, 0.0), 1.0)
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= target:
                lower = 0.0 if index == 0 else bucket_upper_bound(index - 1)
                upper = bucket_upper_bound(index)
                fraction = (
                    (target - cumulative) / in_bucket if in_bucket else 0.0
                )
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += in_bucket
        return self.maximum

    def summary(self) -> Dict[str, float]:
        """The p50/p90/p99 summary shown by the exporters and the status
        file (key-sorted for byte-stable serialization)."""
        return {
            "count": float(self.count),
            "max": float(self.maximum or 0.0),
            "min": float(self.minimum or 0.0),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "sum": self.total,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain JSON types; buckets as ``[upper_bound, count]`` pairs
        sorted by bound, so serialization is insertion-order-free."""
        return {
            "buckets": [
                [bucket_upper_bound(index), self.buckets[index]]
                for index in sorted(self.buckets)
            ],
            "count": self.count,
            "max": self.maximum,
            "min": self.minimum,
            "sum": self.total,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "Histogram":
        histogram = cls()
        histogram.count = int(payload.get("count", 0))
        histogram.total = float(payload.get("sum", 0.0))
        minimum = payload.get("min")
        maximum = payload.get("max")
        histogram.minimum = None if minimum is None else float(minimum)
        histogram.maximum = None if maximum is None else float(maximum)
        for upper, count in payload.get("buckets", ()):
            # Recover the bucket index from the stored upper bound (2**i).
            index = max(0, int(round(math.log2(upper)))) if upper >= 1 else 0
            histogram.buckets[index] = histogram.buckets.get(index, 0) + int(count)
        return histogram

    def __repr__(self) -> str:
        return "Histogram(count=%d, p50=%g, p99=%g)" % (
            self.count, self.quantile(0.5), self.quantile(0.99),
        )


class SampleSeries:
    """A bounded time series of periodic gauge samples."""

    __slots__ = ("samples", "count", "maxlen")

    def __init__(self, maxlen: int = DEFAULT_SERIES_MAXLEN) -> None:
        self.samples: List[Tuple[float, float]] = []  # (wall ts, value)
        self.count = 0  # total ever sampled, including evicted
        self.maxlen = maxlen

    def sample(self, value: float, ts: Optional[float] = None) -> None:
        self.count += 1
        self.samples.append(
            (time.time() if ts is None else float(ts), float(value))
        )
        if len(self.samples) > self.maxlen:
            del self.samples[: len(self.samples) - self.maxlen]

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def merge(self, other: "SampleSeries") -> None:
        """Interleave by timestamp, keep the newest ``maxlen``."""
        self.count += other.count
        merged = sorted(self.samples + list(other.samples))
        self.samples = merged[max(0, len(merged) - self.maxlen):]

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "samples": [[ts, value] for ts, value in self.samples],
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "SampleSeries":
        series = cls()
        series.count = int(payload.get("count", 0))
        series.samples = [
            (float(ts), float(value)) for ts, value in payload.get("samples", ())
        ]
        return series

    def __repr__(self) -> str:
        return "SampleSeries(count=%d, last=%s)" % (self.count, self.last)


# ---------------------------------------------------------------------------
# Registry helpers (used by Recorder and Snapshot)
# ---------------------------------------------------------------------------

_Mergeable = Union[Histogram, SampleSeries]


def merge_registry(
    into: Dict[str, Any], other: Mapping[str, Any]
) -> None:
    """Fold one ``name -> Histogram|SampleSeries`` registry into
    another in place; missing names are deep-copied via the JSON form
    so the merged registry never aliases the source."""
    for name, value in other.items():
        existing = into.get(name)
        if existing is None:
            into[name] = type(value).from_jsonable(value.to_jsonable())
        else:
            existing.merge(value)


def registry_to_jsonable(registry: Mapping[str, _Mergeable]) -> Dict[str, Any]:
    """Name-sorted JSON form of a metrics registry."""
    return {name: registry[name].to_jsonable() for name in sorted(registry)}


def histograms_from_jsonable(payload: Mapping[str, Any]) -> Dict[str, Histogram]:
    return {str(k): Histogram.from_jsonable(v) for k, v in payload.items()}


def samples_from_jsonable(payload: Mapping[str, Any]) -> Dict[str, SampleSeries]:
    return {str(k): SampleSeries.from_jsonable(v) for k, v in payload.items()}


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_family_name(name: str) -> str:
    """The OpenMetrics family name for a dotted repro metric name:
    ``repro_`` prefix, separators to underscores, and any trailing
    ``_total`` stripped (the counter sample suffix re-adds it)."""
    family = "repro_" + _SANITIZE_RE.sub("_", name)
    if family.endswith("_total"):
        family = family[: -len("_total")]
    return family


def _format_number(value: float) -> str:
    if value != value or math.isinf(value):
        return "+Inf" if value > 0 else ("-Inf" if value < 0 else "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(float(value))


def render_openmetrics(
    counters: Mapping[str, float],
    gauges: Mapping[str, float],
    histograms: Mapping[str, Histogram],
) -> str:
    """The Prometheus/OpenMetrics text exposition of one run's
    registries.  Families are emitted in sorted order with ``# HELP``
    carrying the original dotted name, histogram buckets are cumulative
    ``le`` counts ending in ``+Inf``, and the document terminates with
    ``# EOF`` — byte-identical for identical registries regardless of
    hash seed or insertion order.
    """
    lines: List[str] = []
    families: List[Tuple[str, str, str, List[str]]] = []

    for name in counters:
        family = metric_family_name(name)
        families.append((
            family, "counter", name,
            ["%s_total %s" % (family, _format_number(counters[name]))],
        ))
    for name in gauges:
        family = metric_family_name(name) + "_gauge"
        families.append((
            family, "gauge", name,
            ["%s %s" % (family, _format_number(gauges[name]))],
        ))
    for name in histograms:
        histogram = histograms[name]
        family = metric_family_name(name)
        samples: List[str] = []
        cumulative = 0
        for index in sorted(histogram.buckets):
            cumulative += histogram.buckets[index]
            samples.append(
                '%s_bucket{le="%s"} %d'
                % (family, _format_number(bucket_upper_bound(index)), cumulative)
            )
        samples.append('%s_bucket{le="+Inf"} %d' % (family, histogram.count))
        samples.append("%s_sum %s" % (family, _format_number(histogram.total)))
        samples.append("%s_count %d" % (family, histogram.count))
        families.append((family, "histogram", name, samples))

    for family, metric_type, source, samples in sorted(families):
        lines.append("# HELP %s repro metric %s" % (family, source))
        lines.append("# TYPE %s %s" % (family, metric_type))
        lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)


def _parse_sample_value(text: str, line_no: int) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        raise ValueError("line %d: bad sample value %r" % (line_no, text)) from None


def validate_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse an OpenMetrics document (the CI gate).

    Enforces: a single terminating ``# EOF``; ``# TYPE`` before any
    sample of a family; family names valid and declared in sorted order
    (the determinism contract); histogram buckets with ascending ``le``
    and non-decreasing cumulative counts, a ``+Inf`` bucket equal to
    ``_count``, and a ``_sum`` sample; no duplicate sample lines.
    Returns ``{family: {"type": ..., "samples": {line: value}}}``.
    """
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise ValueError("document must end with a trailing newline")
    body = lines[:-1]
    if not body or body[-1] != "# EOF":
        raise ValueError("document must terminate with '# EOF'")
    if body.count("# EOF") != 1:
        raise ValueError("multiple '# EOF' terminators")

    families: Dict[str, Dict[str, Any]] = {}
    declared_order: List[str] = []
    seen_samples: set = set()
    for line_no, line in enumerate(body[:-1], start=1):
        if not line:
            raise ValueError("line %d: blank line" % line_no)
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2:
                raise ValueError("line %d: malformed TYPE line" % line_no)
            family, metric_type = parts
            if not _NAME_RE.match(family):
                raise ValueError(
                    "line %d: invalid family name %r" % (line_no, family)
                )
            if metric_type not in ("counter", "gauge", "histogram"):
                raise ValueError(
                    "line %d: unknown metric type %r" % (line_no, metric_type)
                )
            if family in families:
                raise ValueError(
                    "line %d: duplicate TYPE for %r" % (line_no, family)
                )
            if declared_order and family <= declared_order[-1]:
                raise ValueError(
                    "line %d: family %r out of sorted order (after %r)"
                    % (line_no, family, declared_order[-1])
                )
            declared_order.append(family)
            families[family] = {"type": metric_type, "samples": {}}
            continue
        if line.startswith("#"):
            raise ValueError("line %d: unknown comment form" % line_no)
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError("line %d: malformed sample line %r" % (line_no, line))
        sample_name = match.group("name")
        value = _parse_sample_value(match.group("value"), line_no)
        owner = None
        for family in families:
            if sample_name == family or (
                sample_name.startswith(family + "_")
                and sample_name[len(family) + 1:] in ("total", "sum", "count", "bucket")
            ):
                owner = family
        if owner is None:
            raise ValueError(
                "line %d: sample %r has no preceding TYPE declaration"
                % (line_no, sample_name)
            )
        sample_key = line.rsplit(" ", 1)[0]
        if sample_key in seen_samples:
            raise ValueError("line %d: duplicate sample %r" % (line_no, sample_key))
        seen_samples.add(sample_key)
        families[owner]["samples"][sample_key] = value

    for family, info in families.items():
        if info["type"] != "histogram":
            continue
        buckets = [
            (key, value) for key, value in info["samples"].items()
            if key.startswith(family + "_bucket{")
        ]
        if not buckets:
            raise ValueError("histogram %r has no buckets" % family)
        parsed: List[Tuple[float, float]] = []
        for key, value in buckets:
            le_text = key.split('le="', 1)[1].rstrip('"}')
            parsed.append((_parse_sample_value(le_text, 0), value))
        parsed.sort()
        previous = -1.0
        for le_value, count in parsed:
            if count < previous:
                raise ValueError(
                    "histogram %r buckets not cumulative (le=%g)"
                    % (family, le_value)
                )
            previous = count
        if not math.isinf(parsed[-1][0]):
            raise ValueError("histogram %r missing the +Inf bucket" % family)
        count_key = "%s_count" % family
        if count_key not in info["samples"]:
            raise ValueError("histogram %r missing _count" % family)
        if info["samples"][count_key] != parsed[-1][1]:
            raise ValueError(
                "histogram %r: +Inf bucket (%g) != _count (%g)"
                % (family, parsed[-1][1], info["samples"][count_key])
            )
        if "%s_sum" % family not in info["samples"]:
            raise ValueError("histogram %r missing _sum" % family)
    return families


# ---------------------------------------------------------------------------
# The JSONL timeline
# ---------------------------------------------------------------------------


def write_timeline_jsonl(
    samples: Mapping[str, SampleSeries],
    destination: Union[str, TextIO],
    run: Optional[str] = None,
) -> int:
    """Write the sampled series as a self-identifying JSONL timeline:
    a ``{"kind": "metrics-timeline", ...}`` header line, then one
    ``{"ts", "metric", "value"}`` object per sample ordered by
    ``(ts, metric)``.  Returns the number of sample lines written."""
    header: Dict[str, Any] = {
        "kind": TIMELINE_KIND,
        "version": 1,
        "series": sorted(samples),
    }
    if run:
        header["run"] = run
    rows = sorted(
        (ts, name, value)
        for name, series in samples.items()
        for ts, value in series.samples
    )
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps({"metric": name, "ts": ts, "value": value}, sort_keys=True)
        for ts, name, value in rows
    )
    text = "\n".join(lines) + "\n"
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)
    return len(rows)


def read_timeline_jsonl(
    source: Union[str, TextIO, Iterable[str]]
) -> List[Dict[str, Any]]:
    """Parse a timeline back into its sample rows (header validated
    and stripped)."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    rows: List[Dict[str, Any]] = []
    header_seen = False
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            payload = json.loads(stripped)
        except ValueError:
            raise ValueError("line %d: not valid JSON" % number) from None
        if not header_seen:
            if not (isinstance(payload, dict) and payload.get("kind") == TIMELINE_KIND):
                raise ValueError(
                    "line %d: not a metrics timeline (missing the "
                    '{"kind": "%s"} header)' % (number, TIMELINE_KIND)
                )
            header_seen = True
            continue
        rows.append(payload)
    if not header_seen:
        raise ValueError("empty file: not a metrics timeline")
    return rows


def sniff_jsonl_kind(text: str) -> Optional[str]:
    """The ``kind`` of a JSONL artifact's first line, if it is one
    (``"metrics-timeline"`` for a ``--metrics`` timeline,
    ``"obs-journal"`` for a journal segment file — see
    :data:`repro.obs.journal.JOURNAL_KIND` — ``"repro-batch-status"``
    for a status file; ``None`` for anything that is not line-wise
    JSON objects)."""
    first = ""
    for line in text.splitlines():
        if line.strip():
            first = line.strip()
            break
    if not first.startswith("{"):
        return None
    try:
        payload = json.loads(first)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    kind = payload.get("kind")
    return str(kind) if isinstance(kind, str) else None
