"""The on-disk content-addressed result store (``.repro-cache/``).

Cache keys are the SHA-256 of what actually determines a job's result:

* the **canonicalized** transducer — parsed, then re-serialized with
  sorted rules — so comments, blank lines, and rule order never
  invalidate an entry, while any semantic edit (a rule's right-hand
  side, the initial state) always does;
* the **canonicalized** schema — sorted start labels and sorted
  ``label -> content-model`` lines;
* the sorted protected-label set;
* the **engine version** (:data:`ENGINE_VERSION`), so upgrading the
  analysis engine invalidates every entry at once — cached verdicts
  from an older decision procedure are never trusted.

Files that do not parse are keyed on their raw bytes instead (tagged so
a raw key can never collide with a canonical one); their deterministic
``error`` results are just as cacheable, and editing the file still
invalidates exactly that entry.

Layout: ``<root>/<k[:2]>/<k[2:]>.json``, one JSON document per result,
written atomically (temp file + rename) so a crashed run never leaves a
truncated entry behind.  Unreadable or corrupt entries read as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional, Union

from ..core.topdown import OutputNode, RuleHedge, StateCall, TopDownTransducer
from ..schema.dtd import DTD
from .manifest import JobSpec

__all__ = [
    "ENGINE_VERSION",
    "DEFAULT_CACHE_DIRNAME",
    "canonical_transducer_text",
    "canonical_schema_text",
    "job_cache_key",
    "ResultCache",
]

#: Bumped whenever the analysis engine's verdicts, witnesses or the
#: attribution in cached observations change; part of every cache key,
#: so stale results can never survive an engine upgrade.
ENGINE_VERSION = "repro-1.0.0/corpus-4"

#: Default cache directory name, created inside the corpus directory.
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def _render_rhs_item(item: Union[OutputNode, StateCall]) -> str:
    if isinstance(item, StateCall):
        return item.state
    if not item.children:
        return item.label
    return "%s(%s)" % (item.label, " ".join(_render_rhs_item(c) for c in item.children))


def _render_rhs(rhs: RuleHedge) -> str:
    return " ".join(_render_rhs_item(item) for item in rhs)


def canonical_transducer_text(transducer: TopDownTransducer) -> str:
    """A whitespace/comment/order-insensitive serialization."""
    lines = ["initial %s" % transducer.initial]
    for state in sorted(transducer.text_states):
        lines.append("text %s" % state)
    for state, label in sorted(transducer.rules):
        lines.append(
            "rule %s %s -> %s" % (state, label, _render_rhs(transducer.rules[(state, label)]))
        )
    return "\n".join(lines)


def canonical_schema_text(dtd: DTD) -> str:
    """A whitespace/comment/order-insensitive serialization."""
    lines = ["start %s" % " ".join(sorted(dtd.start))]
    for label in sorted(dtd.alphabet):
        lines.append("%s -> %s" % (label, dtd.content_source(label)))
    return "\n".join(lines)


def _canonical_or_raw(path: str, kind: str) -> Optional[str]:
    """The canonical text of an input file, or a tagged raw-bytes hash
    when it does not parse, or ``None`` when it cannot be read."""
    from ..cli import CliError, load_schema, load_transducer

    try:
        if kind == "transducer":
            return "canonical-transducer\n" + canonical_transducer_text(load_transducer(path))
        return "canonical-schema\n" + canonical_schema_text(load_schema(path))
    except (CliError, ValueError):
        pass
    except OSError:
        return None
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return None
    return "raw-%s\n%s" % (kind, hashlib.sha256(raw).hexdigest())


def job_cache_key(spec: JobSpec, engine_version: str = ENGINE_VERSION) -> Optional[str]:
    """The content hash of a job, or ``None`` when an input file is
    unreadable (such jobs always recompute)."""
    transducer_part = _canonical_or_raw(spec.transducer_path, "transducer")
    schema_part = _canonical_or_raw(spec.schema_path, "schema")
    if transducer_part is None or schema_part is None:
        return None
    digest = hashlib.sha256()
    for part in (
        "engine=%s" % engine_version,
        transducer_part,
        schema_part,
        "protect=%s" % ",".join(sorted(spec.protect)),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class ResultCache:
    """A content-addressed store of JSON job results under ``root``."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` (corrupt entries read as
        misses)."""
        try:
            with open(self.path_for(key), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a payload atomically; cache-write failures are
        non-fatal by design (the result is already in hand)."""
        directory = os.path.dirname(self.path_for(key))
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=2, sort_keys=False)
                os.replace(tmp_path, self.path_for(key))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def entry_count(self) -> int:
        """How many entries the store currently holds."""
        count = 0
        for _root, _dirs, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(".json"))
        return count
