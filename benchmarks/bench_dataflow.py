"""E14 — the dataflow pre-filters: exact work-counter reductions.

The :mod:`repro.lint.dataflow` passes are sound pre-filters in front of
the expensive Theorem 4.11 / Theorem 5.18 procedures.  This bench runs
the same decisions with the pre-filters on and off and compares the
*exact* work counters — product states visited, inverse-type vectors
and products built — asserting that

* every verdict is identical either way (the filters are sound), and
* the gated runs do strictly less work on families built to exercise
  each filter: full short-circuits on copy-free instances, and partial
  product pruning when only part of the state space carries text.

Labels the schema declares but never uses need no filter: the inverse
type walks the schema's rules, so a padded alphabet leaves its work
counters as they are.
"""

from typing import Dict, Tuple

from conftest import report

from repro import obs
from repro.automata import TEXT, nta_from_rules
from repro.automata.nta import NTA
from repro.core import TopDownTransducer
from repro.core.topdown_analysis import is_copying, is_text_preserving
from repro.core.typecheck import typechecks
from repro.lint.dataflow import analyze, clear_cache, prefilter_disabled
from repro.schema import DTD
from repro.workloads import chain_instance

SIZES = [2, 4, 8, 16]


def pruned_copier_instance(n: int) -> Tuple[TopDownTransducer, NTA]:
    """A genuinely copying transducer (the keep-state is duplicated, so
    no short-circuit fires) next to a depth-``n`` deleted chain whose
    states never reach text: the copy-degree pass proves the chain
    non-productive, so the gated product skips every pair involving it
    while still finding the very same copying witness."""
    rules: Dict[Tuple[str, str], str] = {
        ("q0", "r"): "r(qk qk qd1)",
        ("qk", "k"): "k(qt)",
        ("qt", "text"): "text",
    }
    for i in range(1, n):
        rules[("qd%d" % i, "d%d" % i)] = "d%d(qd%d)" % (i, i + 1)
    rules[("qd%d" % n, "d%d" % n)] = "d%d" % n
    transducer = TopDownTransducer(
        states={"q0", "qk", "qt"} | {"qd%d" % i for i in range(1, n + 1)},
        rules=rules,
        initial="q0",
    )
    schema_rules: Dict[Tuple[str, str], str] = {
        ("s0", "r"): "sk sd1",
        ("sk", "k"): "st",
        ("st", TEXT): "eps",
    }
    for i in range(1, n):
        schema_rules[("sd%d" % i, "d%d" % i)] = "sd%d" % (i + 1)
    schema_rules[("sd%d" % n, "d%d" % n)] = "eps"
    schema = nta_from_rules(
        alphabet={"r", "k"} | {"d%d" % i for i in range(1, n + 1)},
        rules=schema_rules,
        initial="s0",
    )
    return transducer, schema


def padded_chain_instance(depth: int, pad: int) -> Tuple[TopDownTransducer, NTA]:
    """The chain family with ``pad`` extra labels declared in the schema
    alphabet but used by no schema rule."""
    transducer, _ = chain_instance(depth)
    labels = ["l%d" % i for i in range(1, depth + 1)]
    schema_rules: Dict[Tuple[str, str], str] = {}
    for i, label in enumerate(labels):
        schema_rules[("s%d" % i, label)] = "s%d" % (i + 1)
    schema_rules[("s%d" % depth, TEXT)] = "eps"
    schema = nta_from_rules(
        alphabet=set(labels) | {"u%d" % i for i in range(pad)},
        rules=schema_rules,
        initial="s0",
    )
    return transducer, schema


def chain_output_dtd(depth: int) -> DTD:
    return DTD(
        content={
            "l%d" % i: ("l%d" % (i + 1) if i < depth else "text")
            for i in range(1, depth + 1)
        },
        start={"l1"},
    )


def counted(fn, *args, **kwargs):
    """Run under a fresh recorder (dataflow cache cleared first, so the
    on/off comparison is between cold runs), returning (result,
    counters)."""
    clear_cache()
    with obs.recording() as recorder:
        result = fn(*args, **kwargs)
    return result, dict(recorder.counters)


class TestPrefilterWorkReduction:
    def test_copy_free_family_short_circuits(self, benchmark_or_timer):
        """Chain instances are copy-free and order-safe: the gated
        pipeline decides them from the summary alone — zero product
        states — with the same verdict as the full construction."""
        rows = []
        for n in SIZES:
            transducer, schema = chain_instance(n)
            with prefilter_disabled():
                verdict_off, off = counted(is_text_preserving, transducer, schema)
            verdict_on, on = counted(is_text_preserving, transducer, schema)
            assert verdict_on == verdict_off is True
            off_states = off.get("ptime.product_states", 0)
            on_states = on.get("ptime.product_states", 0)
            assert off_states > 0 and on_states == 0
            assert on.get("dataflow.prefilter.skips", 0) >= 2
            rows.append((n, off_states, on_states, on.get("dataflow.passes_run", 0)))
        report(
            "E14: copy-free short-circuit (chain family)",
            rows,
            header=("n", "product states off", "on", "passes run"),
        )
        transducer, schema = chain_instance(8)
        benchmark_or_timer(lambda: is_text_preserving(transducer, schema))

    def test_partial_pruning_visits_strictly_fewer_states(self, benchmark_or_timer):
        """The copying family with a deleted chain: no short-circuit
        (the verdict is 'copying'), but the gated product never enters
        the non-productive region — strictly fewer states and
        transitions, same verdict."""
        rows = []
        for n in SIZES:
            transducer, schema = pruned_copier_instance(n)
            with prefilter_disabled():
                verdict_off, off = counted(is_copying, transducer, schema)
            verdict_on, on = counted(is_copying, transducer, schema)
            assert verdict_on == verdict_off is True
            off_states = off.get("ptime.product_states", 0)
            on_states = on.get("ptime.product_states", 0)
            pruned = on.get("ptime.product_pruned", 0)
            assert 0 < on_states < off_states
            assert pruned > 0
            off_edges = off.get("ptime.product_transitions", 0)
            on_edges = on.get("ptime.product_transitions", 0)
            assert on_edges <= off_edges
            rows.append((n, off_states, on_states, pruned))
        report(
            "E14: partial product pruning (copier + deleted chain)",
            rows,
            header=("n", "states off", "states on", "pruned"),
        )
        transducer, schema = pruned_copier_instance(8)
        benchmark_or_timer(lambda: is_copying(transducer, schema))

    def test_typecheck_padded_alphabet(self, benchmark_or_timer):
        """Padded alphabets: labels the schema declares but has no rule
        for cost the inverse type nothing, since its walk over the schema
        never visits them.  Every pad gives pad 0's verdict and work
        counters, with the pre-filters on or off."""
        rows = []
        out = chain_output_dtd(4)
        works = []
        for pad in [0] + SIZES:
            transducer, schema = padded_chain_instance(4, pad)
            with prefilter_disabled():
                verdict_off, off = counted(typechecks, transducer, schema, out)
            verdict_on, on = counted(typechecks, transducer, schema, out)
            assert verdict_on == verdict_off is True
            off_work = (off.get("typecheck.vectors", 0), off.get("typecheck.products", 0))
            on_work = (on.get("typecheck.vectors", 0), on.get("typecheck.products", 0))
            assert on_work == off_work
            works.append(on_work)
            rows.append((pad,) + on_work)
        assert works == [works[0]] * len(works)
        report(
            "E14: inverse type on padded alphabets",
            rows,
            header=("pad", "vectors", "products"),
        )
        transducer, schema = padded_chain_instance(4, 8)
        benchmark_or_timer(lambda: typechecks(transducer, schema, out))

    def test_pass_pipeline_cost(self, benchmark_or_timer):
        """The full five-pass pipeline itself — the price of admission
        for every gate above — stays microscopic next to the procedures
        it guards, and its counters land in the bench record for the
        regression job to track."""
        transducer, schema = pruned_copier_instance(16)

        def pipeline():
            clear_cache()
            return analyze(transducer, schema)

        summary = pipeline()
        assert not summary.copy_free and summary.order_safe is False
        report(
            "E14: pass pipeline on the n=16 copier",
            [
                (s.name, s.iterations, s.visited, s.facts)
                for _, s in sorted(summary.stats.items())
            ],
            header=("pass", "iterations", "visited", "facts"),
        )
        benchmark_or_timer(pipeline)
