"""Job discovery: manifests and the directory convention.

A *corpus* is a directory of transducers and schemas to audit
together.  Jobs — (transducer, schema, protected-labels) triples — come
from one of two places:

* **A manifest** (``manifest.txt`` or ``corpus.manifest`` in the corpus
  directory): one job per line, ``#`` comments, paths relative to the
  manifest::

      # TRANSDUCER SCHEMA [PROTECTED_LABEL ...]
      select.tdx recipes.schema
      select.tdx recipes.schema comment   # same pair, now protecting <comment>

* **The directory convention**, when no manifest exists: the full cross
  product of every ``*.tdx`` against every ``*.schema`` found under the
  corpus directory (recursively), with no protected labels.  This is
  the Martens–Neven-style batch-audit shape: a library of
  transformations against a library of schemas.

Problems with the *corpus itself* (missing directory, unreadable or
malformed manifest, no jobs at all) raise :class:`CorpusError`, a
:class:`repro.formats.FormatError` — the CLI maps that to exit code 2.
Problems with an individual pair (a ``.tdx`` that does not parse, a
missing file named by a job) are deliberately *not* discovery errors:
they surface as per-job ``error`` results so one bad file never blocks
the rest of the corpus.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..formats import FormatError, read_text

__all__ = [
    "CorpusError",
    "JobSpec",
    "MANIFEST_NAMES",
    "parse_manifest",
    "discover_jobs",
    "parse_shard",
    "shard_index",
    "filter_shard",
]

#: Recognized manifest file names, tried in order.
MANIFEST_NAMES: Tuple[str, ...] = ("manifest.txt", "corpus.manifest")


class CorpusError(FormatError):
    """The corpus itself is malformed (bad manifest, nothing to do)."""


@dataclass(frozen=True)
class JobSpec:
    """One (transducer, schema, protected-labels) analysis job.

    ``transducer_path``/``schema_path`` are the paths to open;
    ``transducer_name``/``schema_name`` are the corpus-relative display
    names used in job ids, reports, and tests.
    """

    transducer_path: str
    schema_path: str
    protect: Tuple[str, ...] = ()
    transducer_name: str = ""
    schema_name: str = ""
    source_line: int = 0  # manifest line, 0 for convention-discovered jobs

    def __post_init__(self) -> None:
        if not self.transducer_name:
            object.__setattr__(self, "transducer_name", os.path.basename(self.transducer_path))
        if not self.schema_name:
            object.__setattr__(self, "schema_name", os.path.basename(self.schema_path))

    @property
    def job_id(self) -> str:
        """A human-readable, corpus-unique identifier."""
        base = "%s x %s" % (self.transducer_name, self.schema_name)
        if self.protect:
            base += " [protect %s]" % ",".join(self.protect)
        return base


@dataclass
class _ParsedLine:
    number: int
    tokens: List[str] = field(default_factory=list)


def parse_manifest(path: str, base_dir: str) -> List[JobSpec]:
    """Parse a manifest file into job specs (paths resolved against
    ``base_dir``)."""
    jobs: List[JobSpec] = []
    try:
        text = read_text(path)
    except FormatError as error:
        raise CorpusError(str(error)) from None
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise CorpusError(
                "%s:%d: expected 'TRANSDUCER SCHEMA [PROTECTED_LABEL ...]', got %r"
                % (path, number, line)
            )
        transducer, schema = tokens[0], tokens[1]
        protect = tuple(tokens[2:])
        jobs.append(
            JobSpec(
                transducer_path=os.path.join(base_dir, transducer),
                schema_path=os.path.join(base_dir, schema),
                protect=protect,
                transducer_name=transducer,
                schema_name=schema,
                source_line=number,
            )
        )
    if not jobs:
        raise CorpusError("%s: manifest defines no jobs" % path)
    seen = set()
    for job in jobs:
        key = (job.transducer_name, job.schema_name, job.protect)
        if key in seen:
            raise CorpusError(
                "%s:%d: duplicate job %s" % (path, job.source_line, job.job_id)
            )
        seen.add(key)
    return jobs


def _walk_suffix(corpus_dir: str, suffix: str) -> List[str]:
    """Corpus-relative paths of files with the suffix, sorted."""
    found: List[str] = []
    for root, _dirs, files in os.walk(corpus_dir):
        for name in files:
            if name.endswith(suffix):
                rel = os.path.relpath(os.path.join(root, name), corpus_dir)
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def discover_jobs(corpus_dir: str) -> List[JobSpec]:
    """All jobs of a corpus: the manifest's, or the ``*.tdx`` x
    ``*.schema`` cross product when no manifest exists."""
    if not os.path.isdir(corpus_dir):
        raise CorpusError("corpus directory %s does not exist" % corpus_dir)
    for name in MANIFEST_NAMES:
        manifest_path = os.path.join(corpus_dir, name)
        if os.path.isfile(manifest_path):
            return parse_manifest(manifest_path, corpus_dir)
    transducers = _walk_suffix(corpus_dir, ".tdx")
    schemas = _walk_suffix(corpus_dir, ".schema")
    jobs = [
        JobSpec(
            transducer_path=os.path.join(corpus_dir, transducer),
            schema_path=os.path.join(corpus_dir, schema),
            transducer_name=transducer,
            schema_name=schema,
        )
        for transducer in transducers
        for schema in schemas
    ]
    if not jobs:
        raise CorpusError(
            "corpus %s has no manifest and no *.tdx/*.schema pairs" % corpus_dir
        )
    return jobs


# ---------------------------------------------------------------------------
# Deterministic sharding
# ---------------------------------------------------------------------------
#
# One corpus split across N independent processes (or machines) with no
# coordination: every participant discovers the same job list and keeps
# exactly the jobs whose shard index matches.  The assignment hashes
# the *job id* (not list position), so adding or removing one manifest
# line only moves that one job — the rest of the partition is stable —
# and the same job lands on the same shard regardless of discovery
# order, Python hash seed, or platform.


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse an ``i/N`` shard spec (``0/2``, ``1/2``, ...) into
    ``(index, count)``, rejecting anything out of range."""
    index_text, separator, count_text = spec.partition("/")
    if not separator:
        raise CorpusError("shard spec %r is not of the form i/N" % spec)
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise CorpusError("shard spec %r is not of the form i/N" % spec) from None
    if count < 1:
        raise CorpusError("shard count must be at least 1, got %d" % count)
    if not 0 <= index < count:
        raise CorpusError(
            "shard index %d out of range for %d shards (valid: 0..%d)"
            % (index, count, count - 1)
        )
    return index, count


def shard_index(job_id: str, count: int) -> int:
    """The shard a job belongs to: SHA-256 of its job id modulo the
    shard count.  Content-hash based, so every process computes the
    same partition with no shared state."""
    digest = hashlib.sha256(job_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


def filter_shard(
    jobs: Sequence[JobSpec], index: int, count: int
) -> List[JobSpec]:
    """The sub-list of ``jobs`` assigned to shard ``index`` of
    ``count`` (order preserved; the N shards partition the input)."""
    if count == 1:
        return list(jobs)
    return [job for job in jobs if shard_index(job.job_id, count) == index]
