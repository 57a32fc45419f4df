"""The batch status file: the surface ``python -m repro top`` polls.

:class:`StatusFile` is a record sink of :func:`repro.corpus.run_corpus`
(see its doc for the records): it folds the run's ``run``, ``job`` and
``progress`` records into one small JSON document and rewrites it
atomically (temp file + rename) at begin, on every ``progress`` tick
and at finish, so ``top`` renders a live dashboard without attaching
to the running process.  ``done`` counts the cache hits plus every job
settled so far, ``verdicts`` every result settled so far (cached ones
included), and ``workers`` the in-flight rows the engine reads off its
own futures: ``{job_id, elapsed, stalled}``.

The serve dispatcher writes the same ``kind`` of document, with a
``requests`` table in place of a single run's counts.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict

from ..obs.export import STATUS_KIND
from ..obs.metrics import Histogram

__all__ = [
    "STATUS_KIND",
    "STATUS_BASENAME",
    "StatusFile",
    "write_status_file",
    "read_status_file",
]

#: Default status-file name, created inside the corpus directory.
STATUS_BASENAME = ".repro-status.json"


class StatusFile:
    """The status-file sink of one run (see the module doc)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.document: Dict[str, Any] = {}
        self._verdicts: Dict[str, int] = {}
        self._job_ms = Histogram()

    def __call__(self, type: str, data: Dict[str, Any]) -> None:
        if type == "run" and data["phase"] == "begin":
            self._verdicts = dict(data["cached_verdicts"])
            self.document = {
                "pid": os.getpid(), "total": data["total"],
                "cache_hits": data["cache_hits"], "to_run": data["to_run"],
                "done": data["cache_hits"], "queue_depth": 0, "workers": [],
                "finished": False,
            }
        elif type == "job":
            verdict = data["verdict"]
            self._verdicts[verdict] = self._verdicts.get(verdict, 0) + 1
            self._job_ms.observe(data["job"]["wall_time_s"] * 1000.0)
            self.document["done"] = self.document["cache_hits"] + data["done"]
            return
        elif type == "progress":
            self.document.update(
                done=self.document["cache_hits"] + data["done"],
                queue_depth=data["queue_depth"], workers=data["in_flight"],
            )
        elif type == "run":
            self.document.update(queue_depth=0, workers=[], finished=True)
        else:
            return
        document = dict(
            self.document,
            ts=time.time(),
            verdicts=dict(sorted(self._verdicts.items())),
            job_ms=self._job_ms.summary() if self._job_ms.count else None,
        )
        try:
            write_status_file(self.path, document)
        except OSError:
            # A vanished directory or full disk must not fail the run.
            pass


def write_status_file(path: str, payload: Dict[str, Any]) -> None:
    """Atomically replace the status file (temp file + rename), so a
    concurrent ``top`` never reads a half-written document."""
    document = dict(payload)
    document.setdefault("kind", STATUS_KIND)
    document.setdefault("version", 1)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=".repro-status-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        os.replace(temp_path, path)
    except Exception:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def read_status_file(path: str) -> Dict[str, Any]:
    """Load and sanity-check a status file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("kind") != STATUS_KIND:
        raise ValueError(
            "%s is not a repro batch status file (missing the "
            '{"kind": "%s"} header)' % (path, STATUS_KIND)
        )
    return payload
