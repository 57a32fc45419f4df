"""Corpus audit: batch-checking a fleet of transformations (repro.corpus).

Theorem 4.11 makes the per-pair text-preservation decision PTIME —
cheap enough to run over a whole library of transducers against a
library of schemas on every change.  This walkthrough drives the batch
engine as a library over the example corpus in ``examples/files/corpus``:
discovery from its manifest, a parallel cold run, the content-addressed
cache turning the second run into pure lookups, and the per-job
results (including the deliberately broken pair, which is isolated
rather than fatal).

The same engine is on the command line as::

    python -m repro batch examples/files/corpus --jobs 4

Run:  python examples/corpus_audit.py
"""

import os
import shutil
import tempfile

from repro.corpus import (
    ResultCache,
    discover_jobs,
    job_cache_key,
    render_text,
    run_corpus,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "files", "corpus")


def main() -> None:
    # -- discovery: the manifest names six jobs over five transducers --
    jobs = discover_jobs(CORPUS_DIR)
    print("discovered %d jobs:" % len(jobs))
    for job in jobs:
        print("  %s" % job.job_id)

    # A scratch cache so the walkthrough is repeatable; in real use the
    # default ``CORPUS_DIR/.repro-cache`` persists across runs and git
    # checkouts (keys are content hashes, not mtimes).
    cache_dir = tempfile.mkdtemp(prefix="repro-corpus-")
    cache = ResultCache(cache_dir)
    try:
        # -- the cold run: every pair analysed in worker processes ----
        summary = run_corpus(jobs, max_workers=4, timeout=60.0, cache=cache)
        print()
        print(render_text(summary))

        # Each result is structured data, not just a report line.
        worst = summary.results[0]
        print("worst job: %s -> %s" % (worst.job_id, worst.verdict))
        if worst.error:
            print("  isolated failure: %s" % worst.error)
        for result in summary.results:
            if result.counter_example_xml:
                print("%s counter-example:" % result.job_id)
                print("  %s" % result.counter_example_xml.replace("\n", "\n  "))
                break

        # -- the warm run: pure cache lookups, no worker processes ----
        summary = run_corpus(jobs, max_workers=4, cache=cache)
        print()
        print(
            "second run: %d hits, %d misses in %.3fs"
            % (summary.cache_hits, summary.cache_misses, summary.wall_time_s)
        )

        # Keys hash the job (names, paths, protected labels) and the
        # bytes of its two files: any edit, a comment included,
        # recomputes the jobs that read the file.
        key = job_cache_key(jobs[0])
        print("cache key of %s: %s..." % (jobs[0].job_id, (key or "")[:16]))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
