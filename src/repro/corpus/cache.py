"""The on-disk content-addressed result store (``.repro-cache/``).

A cache key is the SHA-256 of everything a job's result is made of:

* the **engine version** (:data:`ENGINE_VERSION`), so upgrading the
  analysis engine invalidates every entry at once — cached verdicts
  from an older decision procedure are never trusted;
* the job as its result names it: both display names, both paths and
  the protected labels in their given order.  The result carries them
  (its ``job_id``, its diagnostics' ``file:line`` citations), so a hit
  is always a result of this very job;
* the **raw bytes** of the transducer and the schema file.

The cache parses nothing.  Any edit to a file, a comment included,
recomputes that file's jobs: their diagnostics cite lines, and a
comment moves them.  A file that does not parse is keyed the same way;
its deterministic ``error`` result is just as cacheable.  A job whose
file cannot be read has no key and always recomputes.

Layout: ``<root>/<k[:2]>/<k[2:]>.json``, one JSON document per result,
written atomically (temp file + rename) so a crashed run never leaves a
truncated entry behind.  Unreadable or corrupt entries read as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from .manifest import JobSpec

__all__ = [
    "ENGINE_VERSION",
    "DEFAULT_CACHE_DIRNAME",
    "job_cache_key",
    "ResultCache",
]

#: Bumped whenever the analysis engine's verdicts, witnesses or the
#: attribution in cached observations change, or the key's inputs do;
#: part of every cache key, so stale results never survive an upgrade.
ENGINE_VERSION = "repro-1.0.0/corpus-5"

#: Default cache directory name, created inside the corpus directory.
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def job_cache_key(spec: JobSpec, engine_version: str = ENGINE_VERSION) -> Optional[str]:
    """The content hash of a job, or ``None`` when an input file is
    unreadable (such jobs always recompute)."""
    job = [engine_version, spec.transducer_name, spec.transducer_path,
           spec.schema_name, spec.schema_path, list(spec.protect)]
    digest = hashlib.sha256(json.dumps(job).encode("utf-8"))
    for path in (spec.transducer_path, spec.schema_path):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        # Length-prefixed, so no two splits of the bytes hash alike.
        digest.update(b"\x00%d\x00" % len(data))
        digest.update(data)
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
