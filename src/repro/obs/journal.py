"""Crash-safe observability: the append-only event journal.

Everything else in :mod:`repro.obs` is process-resident — a SIGKILLed
daemon takes its spans, request table, and metrics with it.  The
journal is the durable layer underneath: a segmented, append-only,
CRC-framed write-ahead log that the serve dispatcher and the batch
runner write *as events happen*, so a restart (or a postmortem on a
dead machine) can reconstruct what the process knew.

Format
------

A journal is a directory of segment files, ``journal-000001.jsonl``,
``journal-000002.jsonl``, ...  Each segment is itself a well-formed
JSONL artifact: the first line is a header

    {"kind": "obs-journal", "version": 1, "segment": 1, "created": ...}

(so :func:`repro.obs.sniff_jsonl_kind` identifies segments like every
other artifact in the repo), and every subsequent line is one framed
record::

    {"seq": 17, "ts": 1754640000.123, "type": "request",
     "data": {...}, "crc": "9a0b1c2d"}

``crc`` is the CRC-32 (:func:`zlib.crc32`, hex) of the canonical JSON
encoding (sorted keys, compact separators) of the record *without* the
``crc`` key.  A torn write — the tail of the segment that was in
flight when the process died — fails either JSON parsing or the CRC
check; readers skip and count such lines rather than aborting, which
is the whole crash-safety contract: everything before the tear is
intact, the tear itself is detected, nothing after it existed.

Record vocabulary (the ``type`` field):

``meta``
    writer lifecycle — journal opened, recovery performed, shutdown.
``event``
    one :class:`repro.obs.LogEvent` dict (the wire/log shape).
``request``
    one serve request lifecycle phase: ``data`` carries
    ``request_id``, ``phase`` (``admitted``/``started``/``shard``/
    ``finished``/``failed``/``cancelled``/``interrupted``) and the
    request's status ``row`` at that moment.
``job``
    one corpus verdict — the canonical job object of
    :func:`repro.corpus.report.job_object`, plus ``request_id`` when
    journaled by the daemon.
``snapshot``
    a full :class:`repro.obs.Snapshot` dict (spans, events, counters,
    gauges, histograms) — per request on the daemon, per run
    for ``batch --journal``.  This is what makes replay exact: the
    snapshot carries span open/close and metric state through the
    same merge machinery live reporting uses.
``run``
    batch-run lifecycle (``begin``/``finish`` with the summary).

Fsync policy
------------

``fsync="always"`` fsyncs after every record (maximum durability, one
syscall per event); ``"interval"`` (the default) flushes every record
to the OS but fsyncs only when ``fsync_interval`` seconds have passed
or ``fsync_batch`` records are pending — a crash can lose at most that
window; ``"never"`` leaves durability to the OS page cache (rotation
and close still fsync).  :meth:`Journal.lag` reports the records not
yet fsynced — surfaced in ``repro top`` as journal lag.

Replay
------

:func:`replay_journal` folds a journal back into the live-process
shapes: the request table (requests whose last phase is non-terminal
are marked ``interrupted`` — they were in flight at the crash), the
job list, and one merged :class:`~repro.obs.Snapshot`.  From there the
existing exporters do the rest: :meth:`JournalReplay.chrome_trace`,
:meth:`JournalReplay.openmetrics` and :meth:`JournalReplay.html_report`
reconstruct a dead process's trace, metrics exposition, and HTML
report with zero live state — the ``python -m repro journal replay``
command is a thin wrapper over them.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .log import DEBUG
from .recorder import Recorder
from .snapshot import Snapshot

JOURNAL_KIND = "obs-journal"
JOURNAL_VERSION = 1
SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".jsonl"

#: request phases after which a journaled request is settled; anything
#: else at end-of-journal means the process died with it in flight.
TERMINAL_PHASES = ("finished", "failed", "cancelled", "interrupted")

FSYNC_POLICIES = ("always", "interval", "never")


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def record_crc(payload: Dict[str, Any]) -> str:
    """The hex CRC-32 frame of a record (computed over the canonical
    JSON of everything but the ``crc`` key itself)."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    return "%08x" % (zlib.crc32(_canonical(body).encode("utf-8")) & 0xFFFFFFFF)


@dataclass
class JournalRecord:
    """One framed line, already CRC-verified."""

    seq: int
    ts: float
    type: str
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "ts": self.ts, "type": self.type,
                "data": self.data}


@dataclass
class SegmentInfo:
    """What ``journal ls`` prints for one segment file."""

    path: str
    segment: int
    records: int
    corrupt: int
    size: int
    first_seq: Optional[int] = None
    last_seq: Optional[int] = None
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None


def segment_name(number: int) -> str:
    return "%s%06d%s" % (SEGMENT_PREFIX, number, SEGMENT_SUFFIX)


def segment_number(name: str) -> Optional[int]:
    base = os.path.basename(name)
    if not (base.startswith(SEGMENT_PREFIX) and base.endswith(SEGMENT_SUFFIX)):
        return None
    digits = base[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


def journal_segments(directory: str) -> List[str]:
    """Segment paths under ``directory``, oldest first."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    numbered = []
    for name in names:
        number = segment_number(name)
        if number is not None:
            numbered.append((number, os.path.join(directory, name)))
    return [path for _, path in sorted(numbered)]


def _parse_record(line: str) -> Optional[JournalRecord]:
    """One framed line back into a record; ``None`` if torn/corrupt."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    crc = payload.get("crc")
    if not isinstance(crc, str) or record_crc(payload) != crc:
        return None
    seq = payload.get("seq")
    ts = payload.get("ts")
    rtype = payload.get("type")
    data = payload.get("data")
    if not isinstance(seq, int) or not isinstance(rtype, str):
        return None
    if not isinstance(data, dict):
        return None
    return JournalRecord(seq=seq, ts=float(ts or 0.0), type=rtype, data=data)


def read_segment(path: str) -> Tuple[Dict[str, Any], List[JournalRecord], int]:
    """``(header, records, corrupt_count)`` for one segment file.

    Torn or corrupt lines (crash tail, disk damage) are skipped and
    counted, never raised — a journal with a torn tail is the normal
    postmortem case, not an error.
    """
    header: Dict[str, Any] = {}
    records: List[JournalRecord] = []
    corrupt = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            if index == 0:
                try:
                    candidate = json.loads(line)
                except ValueError:
                    candidate = None
                if isinstance(candidate, dict) and candidate.get("kind") == JOURNAL_KIND:
                    header = candidate
                    continue
                # fall through: a headerless file is still readable
            record = _parse_record(line)
            if record is None:
                corrupt += 1
            else:
                records.append(record)
    return header, records, corrupt


@dataclass
class JournalScan:
    """Everything read from a journal directory (or one segment)."""

    directory: str
    segments: List[SegmentInfo] = field(default_factory=list)
    records: List[JournalRecord] = field(default_factory=list)
    corrupt: int = 0


def scan_journal(path: str) -> JournalScan:
    """Read a journal directory — or a single segment file — fully.

    Records come back in ``seq`` order across segments; corrupt lines
    are counted in :attr:`JournalScan.corrupt`.  Raises ``ValueError``
    when ``path`` names neither a journal directory nor a segment.
    """
    if os.path.isdir(path):
        directory = path
        paths = journal_segments(path)
        if not paths:
            raise ValueError("no journal segments (%s*%s) under %s"
                             % (SEGMENT_PREFIX, SEGMENT_SUFFIX, path))
    elif os.path.exists(path):
        directory = os.path.dirname(os.path.abspath(path))
        paths = [path]
    else:
        raise ValueError("journal path does not exist: %s" % path)
    scan = JournalScan(directory=directory)
    for segment_path in paths:
        header, records, corrupt = read_segment(segment_path)
        info = SegmentInfo(
            path=segment_path,
            segment=int(header.get("segment") or segment_number(segment_path) or 0),
            records=len(records),
            corrupt=corrupt,
            size=os.path.getsize(segment_path),
        )
        if records:
            info.first_seq = records[0].seq
            info.last_seq = records[-1].seq
            info.first_ts = records[0].ts
            info.last_ts = records[-1].ts
        scan.segments.append(info)
        scan.records.extend(records)
        scan.corrupt += corrupt
    scan.records.sort(key=lambda record: record.seq)
    return scan


def read_journal(path: str) -> List[JournalRecord]:
    """Just the records of :func:`scan_journal`."""
    return scan_journal(path).records


class Journal:
    """The append side: segmented, CRC-framed, thread-safe.

    Opening a journal always starts a *new* segment (numbered after
    the highest existing one) rather than appending to the old tail —
    a possibly-torn final line from a previous crash then stays
    isolated in its own segment and the new segment is clean from byte
    zero.  ``seq`` continues from the last valid record on disk, so
    record ordering is total across process restarts.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.5,
        fsync_batch: int = 64,
        segment_bytes: int = 8 * 1024 * 1024,
        retain_segments: int = 16,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError("fsync policy must be one of %s, not %r"
                             % ("/".join(FSYNC_POLICIES), fsync))
        if segment_bytes <= 0 or retain_segments <= 0:
            raise ValueError("segment_bytes and retain_segments must be positive")
        self.directory = directory
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.fsync_batch = fsync_batch
        self.segment_bytes = segment_bytes
        self.retain_segments = retain_segments
        self._lock = threading.Lock()
        self._handle: Optional[Any] = None
        self._segment = 0
        self._segment_size = 0
        self._unsynced = 0
        self._last_sync = time.monotonic()
        self._appended = 0
        os.makedirs(directory, exist_ok=True)
        self._seq = self._resume_seq()
        self._open_segment(self._next_segment_number())

    # -- internals -------------------------------------------------

    def _resume_seq(self) -> int:
        """First free ``seq`` — one past the newest valid record."""
        for path in reversed(journal_segments(self.directory)):
            _, records, _ = read_segment(path)
            if records:
                return max(record.seq for record in records) + 1
        return 1

    def _next_segment_number(self) -> int:
        numbers = [segment_number(p) or 0 for p in journal_segments(self.directory)]
        return max(numbers, default=0) + 1

    def _open_segment(self, number: int) -> None:
        path = os.path.join(self.directory, segment_name(number))
        handle = open(path, "a", encoding="utf-8")
        header = {"kind": JOURNAL_KIND, "version": JOURNAL_VERSION,
                  "segment": number, "created": time.time(), "pid": os.getpid()}
        line = json.dumps(header, sort_keys=True)
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self._handle = handle
        self._segment = number
        self._segment_size = len(line) + 1
        self._last_sync = time.monotonic()

    def _sync_locked(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._unsynced = 0
        self._last_sync = time.monotonic()

    def _maybe_sync_locked(self) -> None:
        if self.fsync == "always":
            self._sync_locked()
        elif self.fsync == "interval":
            due = (self._unsynced >= self.fsync_batch
                   or time.monotonic() - self._last_sync >= self.fsync_interval)
            if due:
                self._sync_locked()

    def _rotate_locked(self) -> None:
        self._sync_locked()
        assert self._handle is not None
        self._handle.close()
        self._open_segment(self._segment + 1)
        self._prune_locked()

    def _prune_locked(self) -> None:
        paths = journal_segments(self.directory)
        while len(paths) > self.retain_segments:
            victim = paths.pop(0)
            try:
                os.unlink(victim)
            except OSError:
                break

    # -- public API ------------------------------------------------

    def append(self, type: str, data: Dict[str, Any]) -> int:
        """Frame and write one record; returns its ``seq``.

        Thread-safe; the dispatcher's worker threads and the asyncio
        loop share one journal.  Raises ``ValueError`` after
        :meth:`close`.
        """
        with self._lock:
            if self._handle is None:
                raise ValueError("journal is closed")
            seq = self._seq
            self._seq += 1
            payload = {"seq": seq, "ts": time.time(), "type": type, "data": data}
            payload["crc"] = record_crc(payload)
            line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._handle.write(line + "\n")
            if self.fsync != "never":
                self._handle.flush()
            self._segment_size += len(line) + 1
            self._unsynced += 1
            self._appended += 1
            self._maybe_sync_locked()
            if self._segment_size >= self.segment_bytes:
                self._rotate_locked()
            return seq

    def append_event(self, event: Dict[str, Any]) -> int:
        return self.append("event", event)

    def append_snapshot(self, snapshot: Snapshot, **extra: Any) -> int:
        data: Dict[str, Any] = dict(extra)
        data["snapshot"] = snapshot.to_dict()
        return self.append("snapshot", data)

    def sync(self) -> None:
        """Force an fsync regardless of policy (drops :meth:`lag` to 0)."""
        with self._lock:
            if self._handle is not None:
                self._sync_locked()

    def lag(self) -> int:
        """Records appended but not yet fsynced."""
        with self._lock:
            return self._unsynced

    def health(self) -> Dict[str, Any]:
        """The status-document shape: what ``repro top`` renders."""
        with self._lock:
            return {
                "directory": self.directory,
                "segment": segment_name(self._segment),
                "segment_bytes": self._segment_size,
                "segments": len(journal_segments(self.directory)),
                "lag": self._unsynced,
                "records": self._appended,
                "fsync": self.fsync,
            }

    def close(self) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._sync_locked()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- replay --------------------------------------------------------


@dataclass
class JournalReplay:
    """A journal folded back into live-process shapes."""

    directory: str
    records: int = 0
    corrupt: int = 0
    segments: List[SegmentInfo] = field(default_factory=list)
    #: request_id -> {"state", "phases", "row", "payload"}
    requests: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: canonical job objects, journal order
    jobs: List[Dict[str, Any]] = field(default_factory=list)
    #: request_id -> job objects (daemon journals carry request ids)
    jobs_by_request: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: request_id -> raw Snapshot dict (last wins; "" for run-level)
    snapshot_dicts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: batch-run lifecycle records
    runs: List[Dict[str, Any]] = field(default_factory=list)
    #: last seen run/request summary (for the HTML corpus section)
    summary: Dict[str, Any] = field(default_factory=dict)
    snapshot: Snapshot = field(default_factory=Snapshot)

    def interrupted(self) -> List[str]:
        return sorted(rid for rid, info in self.requests.items()
                      if info["state"] == "interrupted")

    def to_recorder(self) -> Recorder:
        """Graft the merged snapshot into a fresh DEBUG-level recorder
        — the exact trick live ``snapshot_report`` uses, so every
        exporter downstream behaves as if the process were alive."""
        recorder = Recorder(log_level=DEBUG)
        self.snapshot.merge_into(recorder)
        return recorder

    def chrome_trace(self) -> Dict[str, Any]:
        from .export import to_chrome_trace

        return to_chrome_trace(self.to_recorder())

    def openmetrics(self) -> str:
        from .metrics import render_openmetrics

        recorder = self.to_recorder()
        return render_openmetrics(recorder.counters, recorder.gauges,
                                  recorder.histograms)

    def corpus_doc(self) -> Optional[Dict[str, Any]]:
        if not self.jobs:
            return None
        return {"jobs": list(self.jobs), "summary": dict(self.summary)}

    def html_report(self, *, title: str = "journal replay",
                    generated: str = "") -> str:
        from .html import snapshot_report

        return snapshot_report(self.snapshot, corpus=self.corpus_doc(),
                               title=title, generated=generated)


def replay_journal(path: str) -> JournalReplay:
    """Fold a journal (directory or single segment) into a
    :class:`JournalReplay`.

    Requests whose final journaled phase is not terminal were in
    flight when the writer died; they come back with state
    ``"interrupted"``.  Snapshot records merge through
    :meth:`Snapshot.merge_all`; loose ``event`` records (journaled
    before any snapshot flush) merge in as span-less log events.
    """
    scan = scan_journal(path)
    replay = JournalReplay(directory=scan.directory, records=len(scan.records),
                           corrupt=scan.corrupt, segments=scan.segments)
    loose_events: List[Dict[str, Any]] = []
    for record in scan.records:
        data = record.data
        if record.type == "request":
            rid = str(data.get("request_id") or "")
            if not rid:
                continue
            info = replay.requests.setdefault(
                rid, {"state": "interrupted", "phases": [], "row": {},
                      "payload": None, "summary": None})
            phase = str(data.get("phase") or "")
            info["phases"].append(phase)
            if isinstance(data.get("row"), dict):
                info["row"] = data["row"]
            if isinstance(data.get("payload"), dict):
                info["payload"] = data["payload"]
            if isinstance(data.get("summary"), dict):
                info["summary"] = data["summary"]
                replay.summary = data["summary"]
        elif record.type == "job":
            job = data.get("job")
            if isinstance(job, dict):
                replay.jobs.append(job)
                rid = str(data.get("request_id") or "")
                if rid:
                    replay.jobs_by_request.setdefault(rid, []).append(job)
        elif record.type == "snapshot":
            payload = data.get("snapshot")
            if isinstance(payload, dict):
                rid = str(data.get("request_id") or "")
                replay.snapshot_dicts[rid] = payload
        elif record.type == "event":
            loose_events.append(dict(data))
        elif record.type == "run":
            replay.runs.append(dict(data))
            if isinstance(data.get("summary"), dict):
                replay.summary = data["summary"]
    for info in replay.requests.values():
        phases = info["phases"]
        last = phases[-1] if phases else ""
        if last in TERMINAL_PHASES:
            row_state = info["row"].get("state") if info["row"] else None
            info["state"] = str(row_state or last)
        else:
            info["state"] = "interrupted"
    snapshots = []
    for rid in sorted(replay.snapshot_dicts):
        try:
            snapshots.append(Snapshot.from_dict(replay.snapshot_dicts[rid]))
        except (TypeError, ValueError, KeyError):
            replay.corrupt += 1
    merged = Snapshot.merge_all(snapshots) if snapshots else Snapshot()
    if loose_events:
        merged = merged.merge(Snapshot(events=loose_events))
    replay.snapshot = merged
    return replay


def tail_records(path: str, *, after_seq: int = 0,
                 limit: Optional[int] = None) -> Iterator[JournalRecord]:
    """Records with ``seq > after_seq``, oldest first (the ``journal
    tail`` / ``tail -f`` primitive — re-invoke with the last seen seq
    to poll for new records)."""
    records = [r for r in scan_journal(path).records if r.seq > after_seq]
    if limit is not None and limit >= 0:
        records = records[-limit:]
    return iter(records)
