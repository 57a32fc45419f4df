"""The ``audit`` workload: the service path, in process.

One client drives a ``serve.Dispatcher`` (``admit`` + ``stream``) in a
closed loop and waits for each request's terminal event.  The
dispatcher owns a warm ``WorkerPool``.  The corpus is generated from the
seed into a temporary directory inside the checkout: the six example
corpus jobs (the malformed one included) plus seeded transducers over
the recipes schema.  The loop cycles through three request types:

* a cold corpus request: the cache directory is emptied first, so every
  job misses, runs on the pool and writes its cache entry;
* warm corpus requests: every job hits the cache;
* single-pair submits with ``no_cache``.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cli import load_schema_ex, load_transducer_ex
from repro.automata.enumerate import enumerate_trees
from repro.schema import dtd_to_nta
from repro.serve.dispatcher import KEEP_FINISHED, Dispatcher
from repro.trees.navigation import text_values
from repro.trees.substitution import make_value_unique
from repro.trees.xmlio import xml_to_tree

from . import inputs
from .deciders import Sample, check_preserving, check_witness, percentile

#: Per-job deadline; every generated job finishes far inside it.
JOB_TIMEOUT_S = 60.0
WARM_PER_CYCLE = 3
#: Single-pair submits per cycle: SAFE_PAIRS fast safe pairs and unsafe
#: pairs of each kind, variants in turn, so every cycle has the same
#: latency mix.  The median falls among the safe pairs; the four
#: swapped-comments pairs, the slowest kind, are 7% of a cycle, so the
#: p95 falls among them.
SAFE_PAIRS = 48
UNSAFE_PAIRS = ("copy_recipe", "copy_items") + ("swap_comments",) * 4
#: Oracle bounds over the recipes schema (its smallest recipe has 9 nodes).
ORACLE_SIZE = 12
ORACLE_COUNT = 300


def _deletes_below(transducer: Any, nta: Any, label: str) -> bool:
    """Brute force: some enumerated document loses a text value that
    sits below a ``label`` node."""
    for t in enumerate_trees(nta, ORACLE_SIZE + 2, ORACLE_COUNT):
        unique = make_value_unique(t)
        protected = set()
        stack = [(unique, False)]
        while stack:
            node, below = stack.pop()
            if node.is_text:
                if below:
                    protected.add(node.label)
                continue
            inside = below or node.label == label
            stack.extend((child, inside) for child in node.children)
        kept = set()
        for out in transducer.apply(unique):
            kept.update(text_values(out))
        if protected - kept:
            return True
    return False


class Audit:
    name = "audit"
    #: A run measures whole request cycles, so the mix of request kinds
    #: is the same in every run.
    round_size = 1 + WARM_PER_CYCLE + SAFE_PAIRS + len(UNSAFE_PAIRS)
    root_span = "serve.request"
    contract = {"latency_p50_ms": "pair_request_p50_ms",
                "latency_tail_ms": "pair_request_p95_ms",
                "throughput_per_s": "cold_jobs_per_s"}
    expected_spans = (
        "serve.request", "serve.admit", "corpus.run_corpus", "corpus.discover_jobs",
        "corpus.job_cache_key", "corpus.cache_get", "corpus.cache_put",
    )

    def __init__(self, root: str) -> None:
        self.root = root
        self.example_dir = os.path.join(root, "examples", "files", "corpus")
        self.scratch = os.path.join(root, ".perfbench-tmp")
        self.workers = min(os.cpu_count() or 1, 4)
        self.dispatcher: Optional[Dispatcher] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.tmp: Optional[str] = None
        self._references: Dict[Tuple[Any, ...], Optional[str]] = {}

    def setup(self, seed: int) -> None:
        """Generate the corpus, start the dispatcher and warm its pool."""
        os.makedirs(self.scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="audit-", dir=self.scratch)
        self.corpus = os.path.join(self.tmp, "corpus")
        by_kind = inputs.write_audit_corpus(seed, self.corpus, self.example_dir)
        self.dispatcher = Dispatcher(jobs=self.workers, timeout=JOB_TIMEOUT_S, queue_limit=4)
        warm = [self.dispatcher.pool.executor.submit(os.getpid) for _ in range(self.workers)]
        for future in warm:
            future.result()
        self.loop = asyncio.new_event_loop()
        rng = random.Random(seed)
        cycle: List[Tuple[str, str]] = [("cold", "")] + [("warm", "")] * WARM_PER_CYCLE
        safe = by_kind["select"] + by_kind["example_safe"]
        self.specs = []
        for cycle_index in range(200):
            pairs = [rng.choice(safe) for _ in range(SAFE_PAIRS)]
            pairs += [by_kind[kind][(cycle_index + offset) % inputs.VARIANTS]
                      for offset, kind in enumerate(UNSAFE_PAIRS)]
            rng.shuffle(pairs)
            self.specs.extend(cycle + [("pair", name) for name in pairs])

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None
        if self.dispatcher is not None:
            self.dispatcher.shutdown()
            self.dispatcher = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
            try:
                os.rmdir(self.scratch)  # only when no other run is using it
            except OSError:
                pass

    def prepare(self, spec: Tuple[str, str]) -> Tuple[str, Dict[str, Any]]:
        kind, name = spec
        if kind == "pair":
            return kind, {
                "transducer": os.path.join(self.corpus, name),
                "schema": os.path.join(self.corpus, "recipes.schema"),
                "no_cache": True,
            }
        if kind == "cold":
            shutil.rmtree(os.path.join(self.corpus, ".repro-cache"), ignore_errors=True)
        return kind, {"corpus_dir": self.corpus}

    async def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        assert self.dispatcher is not None
        start = time.perf_counter()
        request = self.dispatcher.admit(payload)
        first_event_s = None
        events = 0
        async for _event in self.dispatcher.stream(request):
            events += 1
            if first_event_s is None:
                first_event_s = time.perf_counter() - start
        return {"request_id": request.request_id, "state": request.state,
                "error": request.error, "jobs": list((request.corpus_doc or {}).get("jobs", ())),
                "events": events, "first_event_s": first_event_s}

    def run(self, prepared: Tuple[str, Dict[str, Any]]) -> Dict[str, Any]:
        kind, payload = prepared
        assert self.loop is not None
        outcome = self.loop.run_until_complete(self._request(payload))
        outcome["kind"] = kind
        return outcome

    def traced_specs(self) -> List[Tuple[str, str]]:
        """The traced run replays the start of a cycle: the cold request,
        the warm ones and the first pairs, as many requests as the
        dispatcher keeps for ``trace_snapshot``."""
        return self.specs[:KEEP_FINISHED]

    def units(self, outcome: Dict[str, Any]) -> int:
        """One attempt is one job of a request."""
        return max(1, len(outcome["jobs"]))

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, samples: List[Sample]) -> Dict[str, Tuple[float, str]]:
        by_kind: Dict[str, List[Sample]] = {"cold": [], "warm": [], "pair": []}
        for sample in samples:
            by_kind[sample[1]["kind"]].append(sample)
        cold_rates = [len(outcome["jobs"]) / seconds for _s, outcome, seconds in by_kind["cold"]]
        warm = [seconds * 1000.0 for _s, _o, seconds in by_kind["warm"]]
        pair = [seconds * 1000.0 for _s, _o, seconds in by_kind["pair"]]
        return {
            "cold_jobs_per_s": (statistics.median(cold_rates), "jobs/s"),
            "warm_request_p50_ms": (statistics.median(warm), "ms"),
            "pair_request_p50_ms": (statistics.median(pair), "ms"),
            "pair_request_p95_ms": (percentile(pair, 95), "ms"),
        }

    def counters(self, samples: List[Sample], recorder: Any) -> Dict[str, float]:
        """The program's counters, summed over every request's
        ``Dispatcher.trace_snapshot`` (the bench's recorder sees none of
        the dispatcher thread's work)."""
        assert self.dispatcher is not None
        totals: Dict[str, float] = {}
        for _spec, outcome, _seconds in samples:
            snapshot = self.dispatcher.trace_snapshot(outcome["request_id"])
            for name, value in snapshot.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def service_metrics(self, samples: List[Sample]) -> Dict[str, Tuple[float, str]]:
        assert self.dispatcher is not None
        computed = [job for _s, outcome, _t in samples for job in outcome["jobs"]
                    if not job["cache_hit"]]
        cold = [(outcome, seconds) for _s, outcome, seconds in samples if outcome["kind"] == "cold"]
        busy = sum(job["wall_time_s"] for outcome, _t in cold for job in outcome["jobs"])
        capacity = sum(seconds for _outcome, seconds in cold) * self.workers
        return {
            "corpus.job.wall_ms": (statistics.median(
                job["wall_time_s"] * 1000.0 for job in computed), "ms"),
            "corpus.pool.busy_ratio": (busy / capacity, "ratio"),
            "corpus.pool.spawned_total": (self.dispatcher.pool.spawned_total(), "count"),
            "serve.first_event_ms": (statistics.median(
                outcome["first_event_s"] * 1000.0 for _s, outcome, _t in samples), "ms"),
            "serve.events_per_request": (statistics.mean(
                outcome["events"] for _s, outcome, _t in samples), "count"),
        }

    @staticmethod
    def decisions(samples: List[Sample]) -> int:
        """Jobs the pool computed (cache hits decide nothing)."""
        return sum(1 for _s, outcome, _t in samples for job in outcome["jobs"]
                   if not job["cache_hit"])

    @staticmethod
    def signature(outcome: Dict[str, Any]) -> Any:
        return sorted((job["job_id"], job["verdict"], job["copying"], job["rearranging"],
                       tuple(job["protected_deletions"])) for job in outcome["jobs"])

    # -- correctness -----------------------------------------------------------

    def check(self, spec: Tuple[str, str], outcome: Dict[str, Any]) -> Optional[str]:
        if outcome["state"] != "done":
            return "request ended %s: %s" % (outcome["state"], outcome["error"])
        jobs = outcome["jobs"]
        if not jobs:
            return "request returned no jobs"
        if outcome["kind"] == "warm" and not all(job["cache_hit"] for job in jobs):
            return "warm request missed the cache"
        for job in jobs:
            problem = self.check_job(job)
            if problem is not None:
                return "%s: %s" % (job["job_id"], problem)
        return None

    def check_job(self, job: Dict[str, Any]) -> Optional[str]:
        key = (job["transducer"], tuple(job["protect"]), job["verdict"],
               job["copying"], job["rearranging"], tuple(job["protected_deletions"]),
               job["counter_example_xml"])
        if key not in self._references:
            self._references[key] = self._reference(job)
        return self._references[key]

    def _reference(self, job: Dict[str, Any]) -> Optional[str]:
        name = os.path.basename(job["transducer"])
        if name == "broken.tdx":
            return None if job["verdict"] == "error" else "malformed job was not an error"
        if job["verdict"] not in ("safe", "unsafe"):
            return "verdict %s (%s)" % (job["verdict"], job.get("error"))
        transducer = load_transducer_ex(os.path.join(self.corpus, name)).transducer
        nta = dtd_to_nta(load_schema_ex(os.path.join(self.corpus, "recipes.schema")).dtd)
        for label in job["protect"]:
            if (label in job["protected_deletions"]) != _deletes_below(transducer, nta, label):
                return "protected deletion of %s disagrees with brute force" % label
        unsafe = bool(job["copying"] or job["rearranging"])
        if job["verdict"] != ("unsafe" if unsafe or job["protected_deletions"] else "safe"):
            return "verdict does not follow from its findings"
        if not unsafe:
            return check_preserving(transducer, nta, ORACLE_SIZE, ORACLE_COUNT)
        xml = job["counter_example_xml"]
        return check_witness(transducer, nta, xml_to_tree(xml) if xml else None)
