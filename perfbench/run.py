"""The repository benchmark: three seeded workloads, end-to-end metrics
with tracing off, and a traced run with per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ptime --seed 1 --seconds 20 --trace 0

``--trace 0`` measures a closed loop for ``--seconds`` seconds with no
recorder installed and prints the end-to-end metrics.  ``--trace 1``
replays a fixed, seed-determined prefix of the workload untraced, then
under ``repro.obs.recording`` plus the layer wrappers of
``perfbench/tracing.py``, then untraced again, and prints the per-layer
metrics.  Both
print a table and, as the last line, one JSON object.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

SETUP_REPEATS = 5
#: A traced run fails when the layer self times cover less of the
#: timed wall time than this.
MIN_SELF_COVERAGE = 0.90

Sample = Tuple[Any, Any, float]  # (spec, outcome, seconds)
Metrics = Dict[str, Tuple[float, str]]

#: Units of the BENCHMARK.json end-to-end metrics.  Each workload's
#: ``contract`` names which of its own metrics reports the first three.
E2E_UNITS = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "throughput_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}

#: Counters the program records through ``repro.obs``; exact, and
#: identical from one traced run to the next at one seed.
EXACT_COUNTERS = (
    "ptime.product_states", "typecheck.vectors", "typecheck.products",
    "nta.intersection_states", "mso.negation.output_states",
    "dataflow.prefilter.skips", "corpus.cache.hits", "corpus.cache.misses",
)
SPAN_CALLS = ("strings.nfa_init", "strings.union_nfa", "automata.intersect_nta",
              "mso.compile_mso")
SPAN_MS = (
    "strings.union_nfa", "strings.determinize", "automata.intersect_nta",
    "automata.is_empty", "automata.witness", "automata.bta_determinize",
    "mso.compile_mso", "core.is_copying", "core.is_rearranging", "core.counter_example",
    "core.inverse_type_nta", "core.typechecks", "core.is_copying_dtl",
    "core.is_rearranging_dtl", "lint.dataflow_analyze", "corpus.job_cache_key",
    "corpus.cache_get", "corpus.cache_put", "corpus.discover_jobs", "serve.admit",
)
#: Service metrics only ``audit`` has; the other workloads report 0.
SERVICE_UNITS = {"corpus.job.wall_ms": "ms", "corpus.pool.busy_ratio": "ratio",
                 "corpus.pool.spawned_total": "count", "serve.first_event_ms": "ms",
                 "serve.events_per_request": "count"}

#: Run in a fresh interpreter to time the imports of set-up.
_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; start = time.perf_counter(); "
                 "from perfbench.run import load_workload; "
                 "load_workload(sys.argv[3], sys.argv[2]); "
                 "print(time.perf_counter() - start)")


def load_workload(name: str, root: str) -> Any:
    if name == "audit":
        from perfbench.audit import Audit

        return Audit(root)
    from perfbench import deciders

    return {"ptime": deciders.Ptime, "exptime": deciders.Exptime}[name]()


def import_seconds(name: str, src: str, root: str) -> float:
    """Median import time of the workload over SETUP_REPEATS fresh
    interpreters (an interpreter imports a module only once)."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src, root, name],
                               cwd=root, capture_output=True, text=True, check=True)
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_pass(workload: Any, specs: Any, seconds: Optional[float],
               tracer: Any = None) -> List[Sample]:
    """Run ``specs`` in order; with ``seconds``, stop at the first round
    boundary once that much time has passed.  A ``tracer`` records only
    inside the timed call."""
    samples: List[Sample] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for index, spec in enumerate(specs):
        if (deadline is not None and index % workload.round_size == 0
                and time.perf_counter() >= deadline):
            break
        prepared = workload.prepare(spec)
        root: Any = contextlib.nullcontext()
        if tracer is not None:
            tracer.active = True
            if workload.root_span:
                root = tracer.span(workload.root_span)
        start = time.perf_counter()
        with root:
            outcome = workload.run(prepared)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        samples.append((spec, outcome, elapsed))
    return samples


def check_all(workload: Any, samples: List[Sample]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, reasons)`` against the workload's references."""
    attempted = failed = 0
    reasons: List[str] = []
    for spec, outcome, _seconds in samples:
        units = workload.units(outcome)
        attempted += units
        problem = workload.check(spec, outcome)
        if problem is not None:
            failed += units
            reasons.append("%s: %s" % (spec, problem))
    return attempted, failed, reasons


def per_layer(workload: Any, tracer: Any, counters: Dict[str, float],
              samples: List[Sample], untraced: List[List[Sample]]) -> Metrics:
    out: Metrics = {}
    for name in SPAN_CALLS:
        out[name + ".calls"] = (tracer.calls(name), "count")
    out["strings.nfa_init.self_ms"] = (tracer.self_ms("strings.nfa_init"), "ms")
    for name in SPAN_MS:
        out[name + ".ms"] = (tracer.ms(name), "ms")
    out["automata.intersect_nta.states"] = (tracer.size("automata.intersect_nta"), "count")
    for name in EXACT_COUNTERS:
        out[name] = (counters.get(name, 0), "count")
    for ratio, prefix in (("mso.compile.hit_ratio", "mso.compile.cache_"),
                          ("corpus.cache.hit_ratio", "corpus.cache.")):
        hits, misses = counters.get(prefix + "hits", 0), counters.get(prefix + "misses", 0)
        out[ratio] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["lint.prefilter.skip_ratio"] = (
        counters.get("dataflow.prefilter.skips", 0) / workload.decisions(samples), "ratio")
    service = workload.service_metrics(samples)
    for name, unit in SERVICE_UNITS.items():
        out[name] = service.get(name, (0.0, unit))
    layers = tracer.layer_self_ms()
    for layer, self_ms in layers.items():
        out[layer + ".self_ms"] = (self_ms, "ms")
    traced_s = sum(seconds for _s, _o, seconds in samples)
    untraced_s = statistics.mean(sum(seconds for _s, _o, seconds in passed)
                                 for passed in untraced)
    out["bench.self_coverage_pct"] = (100.0 * sum(layers.values()) / (traced_s * 1000.0), "%")
    out["obs.trace_overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return out


def verdict_signature(workload: Any, samples: List[Sample]) -> str:
    """A digest of every verdict (and witness) of a pass."""
    parts = [repr((spec, workload.signature(outcome))) for spec, outcome, _s in samples]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def print_result(title: str, rows: Metrics, correct: bool, attempted: int, failed: int,
                 metrics: Metrics) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print("  %-34s %14.4f %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def measured_run(workload: Any, args: argparse.Namespace, setup_s: float) -> int:
    samples = timed_pass(workload, workload.specs, args.seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, reasons = check_all(workload, samples)
    own = workload.end_to_end(samples)
    own.update(fail_ratio=(failed / attempted, "ratio"), setup_s=(setup_s, "s"),
               peak_rss_mb=(rss, "MB"))
    for reason in reasons[:20]:
        print("WRONG %s" % reason)
    names = dict(workload.contract, setup_s="setup_s", peak_rss_mb="peak_rss_mb")
    print_result("%s: %d requests, seed %d, tracing off" % (args.workload, len(samples), args.seed),
                 own, not reasons, attempted, failed,
                 {name: (own[source][0], E2E_UNITS[name]) for name, source in names.items()})
    return 0


def traced_run(workload: Any, args: argparse.Namespace) -> int:
    from repro import obs
    from perfbench.tracing import Tracer

    specs = workload.traced_specs()
    # Untraced passes before and after the traced one, so warm-up and
    # drift do not count as tracing overhead.
    untraced = [timed_pass(workload, specs, None)]
    tracer = Tracer()
    tracer.install()
    try:
        with obs.recording() as recorder:
            samples = timed_pass(workload, specs, None, tracer)
    finally:
        tracer.uninstall()
    counters = workload.counters(samples, recorder)
    untraced.append(timed_pass(workload, specs, None))
    layers = per_layer(workload, tracer, counters, samples, untraced)
    attempted, failed, reasons = check_all(workload, samples)
    signature = verdict_signature(workload, samples)
    problems = ["WRONG %s" % reason for reason in reasons[:20]]
    if any(verdict_signature(workload, other) != signature for other in untraced):
        problems.append("traced verdicts differ from untraced verdicts")
    problems += ["wrapper %s recorded no calls" % name
                 for name in workload.expected_spans if tracer.calls(name) == 0]
    coverage = layers["bench.self_coverage_pct"][0]
    if coverage < 100.0 * MIN_SELF_COVERAGE:
        problems.append("layer self times cover %.1f%% of the timed wall time" % coverage)
    for problem in problems:
        print("FAIL %s" % problem)
    print("verdict signature %s" % signature)
    print_result("%s: %d requests, seed %d, traced" % (args.workload, len(samples), args.seed),
                 layers, not problems, attempted, failed, layers)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ptime", "exptime", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no repro sources under %s; run from a checkout root" % src,
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]

    imports_s = import_seconds(args.workload, src, root)
    workload = load_workload(args.workload, root)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload.close()
            start = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - start)
        if args.trace:
            return traced_run(workload, args)
        return measured_run(workload, args, imports_s + statistics.median(setups))
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
