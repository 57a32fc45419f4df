"""Tests for the PTIME decision procedures (paper, §4.2-4.3).

Every verdict of the syntactic procedures is cross-validated against
the bounded brute-force oracle on enumerated schema members.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.automata import TEXT, nta_from_rules, universal_nta
from repro.core import (
    TopDownTransducer,
    bounded_oracle,
    copying_nta,
    copying_witness_path,
    counter_example,
    counter_example_nta,
    is_copying,
    is_rearranging,
    is_text_preserving,
    is_text_preserving_on,
    path_automaton,
    transducer_path_automaton,
)
from repro.paper import example23_dtd, example42_transducer
from repro.schema import dtd_to_nta
from repro.trees import is_subsequence, make_value_unique, text_values


RECIPES_NTA = dtd_to_nta(example23_dtd())


def identity_transducer(labels):
    """Identity on trees over ``labels`` (copies text)."""
    rules = {("q", label): "%s(q)" % label for label in labels}
    rules[("q", "text")] = "text"
    return TopDownTransducer({"q"}, rules, "q")


def copying_transducer():
    """Duplicates every text value below the root."""
    return TopDownTransducer(
        states={"q0", "q"},
        rules={
            ("q0", "a"): "a(q q)",
            ("q", "a"): "a(q)",
            ("q", "text"): "text",
        },
        initial="q0",
    )


def swap_transducer():
    """Outputs b-content before a-content (rearranges at the root)."""
    return TopDownTransducer(
        states={"q0", "qa", "qb", "qt"},
        rules={
            ("q0", "r"): "r(qb qa)",
            ("qa", "a"): "a(qt)",
            ("qb", "b"): "b(qt)",
            ("qt", "text"): "text",
        },
        initial="q0",
    )


def ab_schema():
    """Trees r(a("v") b("w"))."""
    return nta_from_rules(
        alphabet={"r", "a", "b"},
        rules={
            ("q0", "r"): "qa qb",
            ("qa", "a"): "qt",
            ("qb", "b"): "qt",
            ("qt", TEXT): "eps",
        },
        initial="q0",
    )


class TestPathAutomata:
    def test_schema_path_automaton(self):
        nfa = path_automaton(RECIPES_NTA)
        assert nfa.accepts(("recipes", "recipe", "description", TEXT))
        assert nfa.accepts(("recipes", "recipe", "instructions", TEXT))
        assert nfa.accepts(
            ("recipes", "recipe", "comments", "positive", "comment", TEXT)
        )
        assert not nfa.accepts(("recipes", "recipe", TEXT))
        assert not nfa.accepts(("recipe", "description", TEXT))
        assert not nfa.accepts(("recipes", "recipe", "description"))  # must end in text

    def test_schema_path_automaton_respects_completability(self):
        # A path is only valid if the surrounding tree can be completed:
        # label "u" requires an impossible sibling "w" here.
        nta = nta_from_rules(
            alphabet={"r", "u", "w"},
            rules={
                ("q0", "r"): "qu qw",
                ("qu", "u"): "qt",
                ("qw", "w"): "qw",  # uninhabited: w needs an infinite tree
                ("qt", TEXT): "eps",
            },
            initial="q0",
        )
        nfa = path_automaton(nta)
        assert not nfa.accepts(("r", "u", TEXT))

    def test_empty_schema(self):
        nta = nta_from_rules(alphabet={"a"}, rules={("q0", "a"): "qdead"}, initial="q0")
        assert path_automaton(nta).is_empty()

    def test_transducer_path_automaton(self):
        nfa = transducer_path_automaton(example42_transducer())
        assert nfa.accepts(("recipes", "recipe", "description", TEXT))
        assert nfa.accepts(("recipes", "recipe", "ingredients", "item", TEXT))
        # comments are deleted: no path run.
        assert not nfa.accepts(("recipes", "recipe", "comments", "positive", "comment", TEXT))
        assert not nfa.accepts(("recipes", TEXT))

    def test_path_automata_sizes_polynomial(self):
        nfa = path_automaton(RECIPES_NTA)
        assert nfa.size < 10 * RECIPES_NTA.size
        t_nfa = transducer_path_automaton(example42_transducer())
        assert t_nfa.size < 10 * example42_transducer().size


class TestCopying:
    def test_example42_not_copying(self):
        assert not is_copying(example42_transducer(), RECIPES_NTA)

    def test_duplicate_state_call_copies(self):
        nta = universal_nta({"a"})
        assert is_copying(copying_transducer(), nta)

    def test_witness_path(self):
        path = copying_witness_path(copying_transducer(), universal_nta({"a"}))
        assert path is not None
        assert path[-1] == TEXT

    def test_two_distinct_runs_copy(self):
        transducer = TopDownTransducer(
            states={"q0", "q1", "q2"},
            rules={
                ("q0", "a"): "a(q1 q2)",
                ("q1", "text"): "text",
                ("q2", "text"): "text",
            },
            initial="q0",
        )
        assert is_copying(transducer, universal_nta({"a"}))

    def test_schema_can_mask_copying(self):
        # The transducer copies only below label b; a schema without b
        # renders it non-copying.
        transducer = TopDownTransducer(
            states={"q0", "q"},
            rules={
                ("q0", "a"): "a(q0)",
                ("q0", "b"): "b(q q)",
                ("q", "text"): "text",
            },
            initial="q0",
        )
        with_b = universal_nta({"a", "b"})
        without_b = universal_nta({"a"})
        assert is_copying(transducer, with_b)
        assert not is_copying(transducer, without_b)

    def test_copying_nta_agrees_with_nfa(self):
        for transducer, schema in [
            (copying_transducer(), universal_nta({"a"})),
            (example42_transducer(), RECIPES_NTA),
            (swap_transducer(), ab_schema()),
        ]:
            from repro.automata import intersect_nta

            universe = set(schema.alphabet) | set(transducer.alphabet)
            via_nta = not intersect_nta(
                copying_nta(transducer, universe), schema
            ).is_empty()
            assert via_nta == is_copying(transducer, schema)


class TestRearranging:
    def test_example42_not_rearranging(self):
        assert not is_rearranging(example42_transducer(), RECIPES_NTA)

    def test_swap_at_root(self):
        assert is_rearranging(swap_transducer(), ab_schema())
        assert not is_copying(swap_transducer(), ab_schema())

    def test_swap_below_lca(self):
        # The violation happens strictly above the lca: q-pair travels.
        transducer = TopDownTransducer(
            states={"q0", "qb", "qa", "qt"},
            rules={
                ("q0", "top"): "top(qb qa)",
                ("qa", "m"): "m(qa)",
                ("qb", "m"): "m(qb)",
                ("qa", "a"): "a(qt)",
                ("qb", "b"): "b(qt)",
                ("qt", "text"): "text",
            },
            initial="q0",
        )
        # Schema: top(m(a("x") b("y")))
        nta = nta_from_rules(
            alphabet={"top", "m", "a", "b"},
            rules={
                ("q0", "top"): "qm",
                ("qm", "m"): "qa qb",
                ("qa", "a"): "qt",
                ("qb", "b"): "qt",
                ("qt", TEXT): "eps",
            },
            initial="q0",
        )
        assert is_rearranging(transducer, nta)

    def test_in_order_duplicate_states_do_not_rearrange(self):
        # r(qa qb) keeps document order.
        transducer = TopDownTransducer(
            states={"q0", "qa", "qb", "qt"},
            rules={
                ("q0", "r"): "r(qa qb)",
                ("qa", "a"): "a(qt)",
                ("qb", "b"): "b(qt)",
                ("qt", "text"): "text",
            },
            initial="q0",
        )
        assert not is_rearranging(transducer, ab_schema())

    def test_identity_never_rearranges(self):
        labels = {"r", "a", "b"}
        assert not is_rearranging(identity_transducer(labels), ab_schema())


class TestTextPreserving:
    def test_example42_is_text_preserving(self):
        # The headline of the running example: selecting descriptions,
        # ingredients and instructions and deleting comments preserves text.
        assert is_text_preserving(example42_transducer(), RECIPES_NTA)

    def test_counter_example_none_when_preserving(self):
        assert counter_example(example42_transducer(), RECIPES_NTA) is None

    def test_copying_counter_example(self):
        witness = counter_example(copying_transducer(), universal_nta({"a"}))
        assert witness is not None
        assert universal_nta({"a"}).accepts(witness)
        assert not is_text_preserving_on(
            lambda t: copying_transducer().apply(t), witness
        )

    def test_rearranging_counter_example(self):
        witness = counter_example(swap_transducer(), ab_schema())
        assert witness is not None
        assert ab_schema().accepts(witness)
        transducer = swap_transducer()
        out_values = text_values(transducer(witness))
        assert not is_subsequence(out_values, text_values(witness))

    def test_counter_example_language_members_all_bad(self):
        from repro.automata.enumerate import enumerate_trees

        nta = counter_example_nta(swap_transducer(), ab_schema())
        transducer = swap_transducer()
        count = 0
        for t in enumerate_trees(nta, 7, max_count=20):
            unique = make_value_unique(t)
            assert not is_text_preserving_on(lambda s: transducer.apply(s), unique)
            count += 1
        assert count > 0


#: Prints the counter-example of the seeded random pairs 0..33 (20 of
#: them are unsafe), one line per pair.
_SEEDED_WITNESSES = """
import random
from repro import counter_example
from repro.trees import serialize_tree
from repro.workloads.families import random_schema, random_topdown
labels = ("a", "b", "c", "d")
for seed in range(34):
    rng = random.Random(seed)
    transducer = random_topdown(rng, labels, 5)
    witness = counter_example(transducer, random_schema(rng, labels, 5))
    print(seed, None if witness is None else serialize_tree(witness))
"""


class TestCanonicalCounterExamples:
    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _SEEDED_WITNESSES],
                env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in range(4)
        ]
        try:
            outputs = [run.communicate(timeout=600)[0] for run in runs]
        finally:
            for run in runs:
                run.kill()
        assert [run.returncode for run in runs] == [0, 0, 0, 0]
        lines = outputs[0].splitlines()
        assert len(lines) == 34
        assert sum(1 for line in lines if not line.endswith(" None")) == 20
        assert outputs[1:] == [outputs[0]] * 3


#: Prints the TP301 copying path and the TP401 path below <comment> of
#: the four example corpus pairs, one line per pair.
_SEEDED_PATHS = """
import sys
from repro.core.safety import protected_violation_path
from repro.core.topdown_analysis import copying_witness_path
from repro.formats import load_schema, load_transducer
from repro.schema import dtd_to_nta
corpus = sys.argv[1]
schema = dtd_to_nta(load_schema(corpus + "/recipes.schema"))
for name in ("select", "identity", "duplicate", "swap_comments"):
    transducer = load_transducer("%s/%s.tdx" % (corpus, name))
    print(name, copying_witness_path(transducer, schema),
          protected_violation_path(transducer, schema, "comment"))
"""


class TestCanonicalWitnessPaths:
    def test_paths_do_not_depend_on_the_hash_seed(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        corpus = os.path.join(os.path.dirname(src), "examples", "files", "corpus")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _SEEDED_PATHS, corpus],
                env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in (1, 2)
        ]
        try:
            outputs = [run.communicate(timeout=600)[0] for run in runs]
        finally:
            for run in runs:
                run.kill()
        assert [run.returncode for run in runs] == [0, 0]
        # The least paths: "description" before "instructions", and
        # "negative" before "positive".
        assert "duplicate ('recipes', 'recipe', 'description', 'text')" in outputs[0]
        assert "'comments', 'negative', 'comment', 'text')" in outputs[0]
        assert outputs[1] == outputs[0]


class TestOracleAgreement:
    """The decision procedures agree with brute force on small instances."""

    CASES = [
        ("identity", identity_transducer({"r", "a", "b"}), ab_schema(), 6),
        ("swap", swap_transducer(), ab_schema(), 6),
        ("copying", copying_transducer(), universal_nta({"a"}), 5),
        ("example42", example42_transducer(), RECIPES_NTA, 9),
    ]

    @pytest.mark.parametrize("name,transducer,schema,bound", CASES)
    def test_agreement(self, name, transducer, schema, bound):
        oracle = bounded_oracle(lambda t: transducer.apply(t), schema, max_size=bound)
        assert oracle.trees_checked > 0
        decided_preserving = is_text_preserving(transducer, schema)
        if not oracle.text_preserving:
            # Oracle found a violation: the procedure must agree.
            assert not decided_preserving, name
        if decided_preserving:
            assert oracle.text_preserving, name
        if oracle.copying:
            assert is_copying(transducer, schema), name
        if oracle.rearranging:
            assert is_rearranging(transducer, schema), name

    @pytest.mark.parametrize("name,transducer,schema,bound", CASES)
    def test_witness_size_within_oracle_reach(self, name, transducer, schema, bound):
        # When the procedure says "not preserving", its witness should be
        # small and concretely violating.
        witness = counter_example(transducer, schema)
        if witness is not None:
            assert schema.accepts(witness)
            assert not is_text_preserving_on(lambda t: transducer.apply(t), witness)
