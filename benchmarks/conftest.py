"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one artifact of the paper (figure,
table, example, or complexity claim) per the experiment index in
DESIGN.md, printing the series it measures so the harness output can be
compared against EXPERIMENTS.md.

Every ``benchmark_or_timer`` measurement runs once under a
:mod:`repro.obs` recorder.  When the session ends, ``BENCH_results.json``
at the repo root is overwritten with one entry per measurement, keyed
and sorted by test id: its wall ``seconds``, its exact ``counters`` and
``gauges``, and the ``labeled`` split of its attributed counters.  ``tests/golden/regen_bench_counters.sh`` drops the
seconds to regenerate the committed golden,
``tests/golden/bench-counters.json``.
"""

import json
import os
import time

import pytest

from repro import obs

#: One entry per benchmark_or_timer measurement, keyed by test id.
_ENTRIES = {}


def report(title, rows, header=None):
    """Print a small aligned table into the benchmark log."""
    print("\n=== %s ===" % title)
    if header:
        print("  " + " | ".join(str(h) for h in header))
    for row in rows:
        print("  " + " | ".join(str(c) for c in row))


def wall_time(fn, *args, **kwargs):
    """Run once, returning (result, seconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture
def benchmark_or_timer(benchmark, request):
    """Run a thunk once under a :mod:`repro.obs` recorder and return its
    seconds: through pytest-benchmark when it is active, otherwise with
    plain wall-clock timing, so the bench files double as plain tests.
    The seconds, counters, gauges and labeled counters go into
    ``BENCH_results.json``."""

    def run(fn):
        with obs.recording() as recorder:
            if benchmark.enabled:
                benchmark.pedantic(fn, rounds=1, iterations=1)
                seconds = benchmark.stats.stats.mean
            else:
                _result, seconds = wall_time(fn)
        _ENTRIES[request.node.nodeid] = {
            "seconds": seconds,
            "counters": dict(recorder.counters),
            "gauges": dict(recorder.gauges),
            "labeled": obs.labeled_to_jsonable(recorder.labeled),
        }
        return seconds

    return run


def pytest_sessionfinish(session, exitstatus):
    """Overwrite ``BENCH_results.json`` with this session's entries."""
    if not _ENTRIES:
        return
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_results.json"), "w", encoding="utf-8") as handle:
        json.dump(_ENTRIES, handle, indent=2, sort_keys=True)
        handle.write("\n")
