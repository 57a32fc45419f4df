"""Tests for typechecking (the §6 EXPTIME contrast problem).

Every static verdict is cross-validated against brute force: run the
transducer on enumerated inputs and validate the output directly.
"""

import pytest

from repro import obs
from repro.automata import TEXT, intersect_nta, nta_from_rules
from repro.automata.enumerate import enumerate_trees
from repro.core import TopDownTransducer
from repro.core import typecheck
from repro.core.typecheck import (
    _output_type,
    hedge_summary,
    inverse_type_nta,
    output_valid,
    typecheck_counter_example,
    typechecks,
)
from repro.paper import example23_dtd, example42_transducer, figure1_tree
from repro.schema import DTD, dtd_to_nta


def figure2_dtd() -> DTD:
    """The natural output type of Example 4.2: recipes without comments,
    items flattened into text."""
    return DTD(
        content={
            "recipes": "recipe*",
            "recipe": "description . ingredients . instructions",
            "description": "text",
            "ingredients": "text*",
            "instructions": "(br + text)*",
            "br": "eps",
        },
        start={"recipes"},
    )


def wrong_output_dtd() -> DTD:
    """Demands at least one ingredient — Example 4.2 can output none."""
    return DTD(
        content={
            "recipes": "recipe*",
            "recipe": "description . ingredients . instructions",
            "description": "text",
            "ingredients": "text text*",
            "instructions": "(br + text)*",
            "br": "eps",
        },
        start={"recipes"},
    )


RECIPES = dtd_to_nta(example23_dtd())


def brute_valid(transducer, out_dtd, t):
    """Ground truth: run the transducer; the output must be one tree
    valid w.r.t. the output DTD (an empty/hedge output is invalid)."""
    result = transducer.apply(t)
    return len(result) == 1 and out_dtd.is_valid(result[0])


class TestPerTreeValidity:
    def test_output_valid_agrees_with_direct_validation(self):
        transducer = example42_transducer()
        out_dtd = figure2_dtd()
        for t in enumerate_trees(RECIPES, 11, max_count=150):
            direct = brute_valid(transducer, out_dtd, t)
            assert output_valid(transducer, out_dtd, t) == direct, t

    def test_figure1_output_is_well_typed(self):
        assert output_valid(example42_transducer(), figure2_dtd(), figure1_tree())

    def test_summary_tracks_sequence_abstraction(self):
        transducer = example42_transducer()
        summary = hedge_summary(transducer, figure2_dtd(), figure1_tree())
        maps, abstraction, ok = summary
        assert abstraction == "recipes"
        assert ok


class TestStaticTypechecking:
    def test_example42_typechecks_against_its_output_type(self):
        assert typechecks(example42_transducer(), RECIPES, figure2_dtd())
        assert typecheck_counter_example(
            example42_transducer(), RECIPES, figure2_dtd()
        ) is None

    def test_wrong_output_type_rejected_with_witness(self):
        transducer = example42_transducer()
        assert not typechecks(transducer, RECIPES, wrong_output_dtd())
        witness = typecheck_counter_example(transducer, RECIPES, wrong_output_dtd())
        assert witness is not None
        assert RECIPES.accepts(witness)
        assert not brute_valid(transducer, wrong_output_dtd(), witness)

    def test_unknown_output_label_fails(self):
        transducer = TopDownTransducer(
            states={"q0"},
            rules={("q0", "a"): "mystery"},
            initial="q0",
        )
        schema = nta_from_rules(alphabet={"a"}, rules={("q0", "a"): "eps"}, initial="q0")
        out = DTD(content={"a": "eps"}, start={"a"})
        assert not typechecks(transducer, schema, out)

    def test_deleting_everything_typechecks_trivially(self):
        transducer = TopDownTransducer(
            states={"q0"}, rules={("q0", "a"): "ok"}, initial="q0"
        )
        schema = nta_from_rules(
            alphabet={"a", "b"},
            rules={("q0", "a"): "qany*", ("qany", "b"): "eps", ("qany", TEXT): "eps"},
            initial="q0",
        )
        out = DTD(content={"ok": "eps"}, start={"ok"})
        assert typechecks(transducer, schema, out)

    def test_bounded_equivalence_on_random_family(self):
        # The static verdict agrees with brute force on enumerated inputs.
        transducer = TopDownTransducer(
            states={"q0", "q"},
            rules={
                ("q0", "a"): "r(q)",
                ("q", "a"): "x(q)",
                ("q", "b"): "y",
                ("q", "text"): "text",
            },
            initial="q0",
        )
        schema = nta_from_rules(
            alphabet={"a", "b"},
            rules={("s", "a"): "s* st?", ("st", "b"): "eps", ("s", "b"): "eps", ("st", TEXT): "eps"},
            initial="s",
        )
        out = DTD(
            content={"r": "(x + y)*", "x": "(x + y + text)*", "y": "eps"},
            start={"r"},
        )
        static = typechecks(transducer, schema, out)
        brute = all(
            brute_valid(transducer, out, t) for t in enumerate_trees(schema, 7)
        )
        assert static == brute
        # Tighten the output type so it fails, and confirm both agree.
        strict = DTD(content={"r": "x*", "x": "(x + text)*"}, start={"r"})
        static2 = typechecks(transducer, schema, strict)
        brute2 = all(
            brute_valid(transducer, strict, t) for t in enumerate_trees(schema, 7)
        )
        assert static2 == brute2 == False  # noqa: E712

    def test_inverse_type_automaton_partitions(self):
        transducer = example42_transducer()
        out = figure2_dtd()
        bad = inverse_type_nta(transducer, out, RECIPES.alphabet, accept_valid=False)
        good = inverse_type_nta(transducer, out, RECIPES.alphabet, accept_valid=True)
        for t in enumerate_trees(RECIPES, 9, max_count=60):
            assert bad.accepts(t) != good.accepts(t), t
            assert good.accepts(t) == brute_valid(transducer, out, t), t


class TestOutputTypeCache:
    def test_cache_stays_bounded_and_a_reused_dtd_hits(self):
        transducer = TopDownTransducer(
            states={"q0"}, rules={("q0", "a"): "ok"}, initial="q0"
        )
        schema = nta_from_rules(alphabet={"a"}, rules={("q0", "a"): "eps"}, initial="q0")

        def ok_dtd():
            return DTD(content={"ok": "eps"}, start={"ok"})

        reused = ok_dtd()
        assert typechecks(transducer, schema, reused)
        bound = _output_type.cache_info().maxsize
        for _ in range(3 * bound):
            assert typechecks(transducer, schema, ok_dtd())
            hits = _output_type.cache_info().hits
            assert typechecks(transducer, schema, reused)
            assert _output_type.cache_info().hits == hits + 1
            assert _output_type.cache_info().currsize <= bound
        assert _output_type.cache_info().currsize == bound


@pytest.fixture(scope="module")
def example42_bad():
    return inverse_type_nta(
        example42_transducer(), figure2_dtd(), RECIPES.alphabet, accept_valid=False
    )


class TestSharedHorizontalStructure:
    """Object counts, not timings: every element horizontal of an
    inverse type is a ``with_finals`` sibling of one structure, and the
    kernel keeps it that way through the root union and the product."""

    def test_root_horizontals_share_the_vector_structure(self, example42_bad):
        shared = {
            symbol: horizontal
            for (state, symbol), horizontal in example42_bad.delta.items()
            if state != ("root",) and symbol != TEXT
        }
        roots = [
            (symbol, horizontal)
            for (state, symbol), horizontal in example42_bad.delta.items()
            if state == ("root",) and symbol != TEXT
        ]
        assert roots
        for symbol, horizontal in roots:
            # One per-vector structure (1,215 states here); a renaming
            # union chain would reach about ten thousand.
            assert horizontal.structure_key() == shared[symbol].structure_key()
            assert len(horizontal.states) == len(shared[symbol].states)

    def test_product_pairs_each_structure_once(self, example42_bad):
        product = intersect_nta(example42_bad, RECIPES)
        maps = {horizontal.structure_key() for horizontal in product.delta.values()}
        pairs = {
            (
                example42_bad.delta[(left, symbol)].structure_key(),
                id(RECIPES.delta[(right, symbol)]),
            )
            for (left, right), symbol in product.delta
        }
        assert len(maps) <= len(pairs) < len(product.delta)


class TestInternedSummaryMonoid:
    """Object counts, not timings: the inverse-type fixpoint evaluates
    the summary monoid once per distinct operand pair, so a change that
    drops the memo fails here instead of costing seconds."""

    def test_concat_runs_once_per_distinct_operand_pair(self, monkeypatch):
        operands = []
        concat = typecheck._concat

        def counting(out, left, right):
            operands.append((left, right))
            return concat(out, left, right)

        monkeypatch.setattr(typecheck, "_concat", counting)
        inverse_type_nta(
            example42_transducer(), figure2_dtd(), RECIPES.alphabet, accept_valid=False
        )
        # 237 distinct operand pairs (29 distinct summaries); evaluated
        # without the memo, the fixpoint calls _concat 85,050 times.
        assert len(operands) == len(set(operands)) <= 237

    def test_reachable_vectors_and_products(self):
        with obs.recording() as recorder:
            inverse_type_nta(
                example42_transducer(), figure2_dtd(), RECIPES.alphabet, accept_valid=False
            )
        assert recorder.counters["typecheck.vectors"] == 19
        assert recorder.counters["typecheck.products"] == 1215
