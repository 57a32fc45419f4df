"""The ``ptime`` and ``exptime`` workloads: single-threaded, in-process
decision loops, one decision per fresh input.

Every workload (these two and ``audit.Audit``) exposes the surface the
runner drives:

* ``setup(seed)`` generates the seeded inputs ``specs`` (timed as set-up)
  and ``close()`` releases what set-up started;
* ``prepare(spec)`` builds fresh objects for one input, untimed;
* ``run(prepared)`` is the timed request;
* ``check(spec, outcome)`` compares the outcome against an independent
  reference, untimed, and returns a reason string when it is wrong;
* ``end_to_end(samples)`` and ``contract`` give the workload's own
  metrics and which of them BENCHMARK.json reports;
* ``units``, ``counters``, ``service_metrics`` and ``signature`` feed the
  traced run.
"""

from __future__ import annotations

import itertools
import statistics
from typing import Any, Dict, List, Optional, Tuple

from repro import counter_example, is_text_preserving
from repro.automata.enumerate import enumerate_trees
from repro.core.characterization import is_text_preserving_on
from repro.core.oracle import bounded_oracle
from repro.core.typecheck import typecheck_counter_example, typechecks
from repro.mso import clear_compile_cache
from repro.paper import example42_transducer

from . import inputs

#: Bounded-oracle effort per preserving ptime verdict.
ORACLE_SIZE = 6
ORACLE_COUNT = 300
#: Enumeration bound of the brute-force typecheck reference.
BRUTE_SIZE = 12
BRUTE_COUNT = 200

Sample = Tuple[Any, Any, float]  # (spec, outcome, seconds)


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_witness(transducer: Any, schema: Any, witness: Any) -> Optional[str]:
    """An unsafe verdict's witness must be a schema tree on which the
    transducer is not text-preserving (Definition 2.2)."""
    if witness is None:
        return "unsafe verdict without a counter-example"
    if not schema.accepts(witness):
        return "counter-example is not accepted by the schema"
    if is_text_preserving_on(transducer.apply, witness):
        return "counter-example does not violate text-preservation"
    return None


def check_preserving(transducer: Any, schema: Any, size: int, count: int) -> Optional[str]:
    """A preserving verdict must survive the bounded oracle."""
    if not bounded_oracle(transducer.apply, schema, size, count).text_preserving:
        return "bounded oracle found a violation of a preserving verdict"
    return None


def _output_valid(transducer: Any, output_dtd: Any, t: Any) -> bool:
    result = transducer.apply(t)
    return len(result) == 1 and output_dtd.is_valid(result[0])


class _Decider:
    """What ``ptime`` and ``exptime`` share: one decision per request,
    counters read from the bench's own recorder."""

    root_span = None

    def close(self) -> None:
        pass

    def traced_specs(self) -> List[Any]:
        """The fixed input prefix the traced run replays."""
        return list(itertools.islice(self.specs, self.traced_items))

    def units(self, outcome: Any) -> int:
        return 1

    def end_to_end(self, samples: List[Sample]) -> Dict[str, Tuple[float, str]]:
        latencies = [seconds * 1000.0 for _spec, _outcome, seconds in samples]
        return {
            "verdict_p50_ms": (statistics.median(latencies), "ms"),
            "verdict_p95_ms": (percentile(latencies, 95), "ms"),
            "verdict_max_ms": (max(latencies), "ms"),
            "verdicts_per_s": (len(latencies) / (sum(latencies) / 1000.0), "1/s"),
        }

    def counters(self, samples: List[Sample], recorder: Any) -> Dict[str, float]:
        return dict(recorder.counters)

    def service_metrics(self, samples: List[Sample]) -> Dict[str, Tuple[float, str]]:
        return {}

    @staticmethod
    def decisions(samples: List[Sample]) -> int:
        return len(samples)

    def signature(self, outcome: Any) -> Any:
        return outcome


class Ptime(_Decider):
    """Theorem 4.11 on seeded random_topdown/random_schema pairs plus
    wide_instance(n): ``is_text_preserving``, then ``counter_example``
    when the pair is unsafe."""

    name = "ptime"
    round_size = inputs.PTIME_ROUND
    #: Inputs the traced run replays, untraced and then traced.
    traced_items = 4 * inputs.PTIME_ROUND
    contract = {"latency_p50_ms": "verdict_p50_ms", "latency_tail_ms": "verdict_p95_ms",
                "throughput_per_s": "verdicts_per_s"}
    expected_spans = (
        "core.is_copying", "core.is_rearranging", "core.counter_example",
        "lint.dataflow_analyze", "automata.intersect_nta", "automata.is_empty",
        "automata.witness", "strings.nfa_init", "strings.union_nfa",
    )

    def setup(self, seed: int) -> None:
        self.specs = inputs.ptime_specs(seed)

    def prepare(self, spec: Tuple[str, int]) -> Any:
        return inputs.ptime_pair(spec)

    def run(self, pair: Any) -> Tuple[bool, Any]:
        transducer, schema = pair
        verdict = is_text_preserving(transducer, schema)
        witness = None if verdict else counter_example(transducer, schema)
        return verdict, witness

    @staticmethod
    def signature(outcome: Tuple[bool, Any]) -> Any:
        """The verdict and the witness size: among smallest witnesses
        the program's pick follows set iteration order, which changes
        with the interpreter's hash seed."""
        verdict, witness = outcome
        return verdict, None if witness is None else witness.size

    def check(self, spec: Tuple[str, int], outcome: Tuple[bool, Any]) -> Optional[str]:
        verdict, witness = outcome
        transducer, schema = inputs.ptime_pair(spec)
        if verdict:
            return check_preserving(transducer, schema, ORACLE_SIZE, ORACLE_COUNT)
        return check_witness(transducer, schema, witness)


class Exptime(_Decider):
    """The exponential procedures: §6 typechecking of Example 4.2
    against Figure 2, the DTL^XPath/MSO decision of the E12 select pair,
    and pool typecheck instances."""

    name = "exptime"
    #: A run measures whole rounds: Example 4.2, the DTL pair and the
    #: small typechecks, so every run does the same mix of work however
    #: long its decisions take.
    round_size = 2 + inputs.TYPECHECKS_PER_ROUND
    #: A round has one Example 4.2 typecheck: its slowest decision is the
    #: tail, since a p95 would have too few samples beyond it.
    contract = {"latency_p50_ms": "verdict_p50_ms", "latency_tail_ms": "verdict_max_ms",
                "throughput_per_s": "verdicts_per_s"}
    expected_spans = (
        "core.typechecks", "core.inverse_type_nta", "automata.intersect_nta",
        "automata.is_empty", "strings.nfa_init", "strings.union_nfa",
        "strings.determinize", "core.is_copying_dtl", "core.is_rearranging_dtl",
        "mso.compile_mso", "automata.bta_determinize", "lint.dataflow_analyze",
    )

    def setup(self, seed: int) -> None:
        self.specs = inputs.exptime_specs(seed)

    def traced_specs(self) -> List[Any]:
        """Example 4.2, the DTL pair and 30 small typechecks."""
        small = (spec for spec in self.specs if spec[0] == "typecheck")
        return [("example42", 0), ("dtl_select", 0)] + list(itertools.islice(small, 30))

    def prepare(self, spec: Tuple[str, int]) -> Any:
        kind, value = spec
        if kind == "example42":
            return kind, (example42_transducer(), inputs.example23_schema(), inputs.figure2_dtd())
        if kind == "dtl_select":
            clear_compile_cache()
            return kind, (inputs.select_dtl(), inputs.abridged_schema())
        return kind, inputs.typecheck_instance(value)

    def run(self, prepared: Any) -> bool:
        kind, args = prepared
        if kind == "dtl_select":
            return is_text_preserving(*args)
        return typechecks(*args)

    def check(self, spec: Tuple[str, int], verdict: bool) -> Optional[str]:
        kind, args = self.prepare(spec)
        if kind == "dtl_select":
            twin = is_text_preserving(inputs.select_topdown(), inputs.abridged_schema())
            return None if verdict == twin else "DTL verdict differs from its top-down twin"
        transducer, schema, output_dtd = args
        invalid = any(not _output_valid(transducer, output_dtd, t)
                      for t in enumerate_trees(schema, BRUTE_SIZE, BRUTE_COUNT))
        if verdict:
            return "typechecks, but an enumerated input gives invalid output" if invalid else None
        if invalid:
            return None
        # No small input shows the failure: the program's own witness
        # must, under brute-force validation.
        witness = typecheck_counter_example(transducer, schema, output_dtd)
        if witness is None or not schema.accepts(witness):
            return "fails to typecheck without an input witness"
        if _output_valid(transducer, output_dtd, witness):
            return "typecheck witness produces valid output"
        return None
