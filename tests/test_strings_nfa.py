"""Tests for the NFA substrate."""

import itertools

import pytest

from repro.strings import (
    EPSILON,
    NFA,
    concat_nfa,
    determinize,
    literal_nfa,
    pair_nfa,
    product_nfa,
    star_nfa,
    union_nfa,
)


def ab_star() -> NFA:
    """(ab)*"""
    return NFA(
        states={0, 1},
        alphabet={"a", "b"},
        transitions=[(0, "a", 1), (1, "b", 0)],
        initial=0,
        finals={0},
    )


class TestBasics:
    def test_accepts(self):
        nfa = ab_star()
        assert nfa.accepts(())
        assert nfa.accepts(("a", "b"))
        assert nfa.accepts(("a", "b", "a", "b"))
        assert not nfa.accepts(("a",))
        assert not nfa.accepts(("b", "a"))

    def test_size(self):
        assert ab_star().size == 2 + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            NFA({0}, set(), [], 1, set())
        with pytest.raises(ValueError):
            NFA({0}, set(), [], 0, {1})
        with pytest.raises(ValueError):
            NFA({0}, set(), [(0, "a", 1)], 0, set())

    def test_literal(self):
        nfa = literal_nfa(("x", "y"))
        assert nfa.accepts(("x", "y"))
        assert not nfa.accepts(("x",))
        assert not nfa.accepts(("x", "y", "x"))

    def test_arbitrary_hashable_symbols(self):
        # Horizontal languages of NTAs use automaton states as symbols.
        q = ("state", 3)
        nfa = literal_nfa((q,))
        assert nfa.accepts((q,))


class TestEpsilon:
    def test_epsilon_closure(self):
        nfa = NFA({0, 1, 2}, {"a"}, [(0, EPSILON, 1), (1, EPSILON, 2)], 0, {2})
        assert nfa.epsilon_closure([0]) == {0, 1, 2}
        assert nfa.accepts(())

    def test_without_epsilon_preserves_language(self):
        nfa = NFA(
            {0, 1, 2},
            {"a", "b"},
            [(0, EPSILON, 1), (1, "a", 2), (0, "b", 2)],
            0,
            {2},
        )
        stripped = nfa.without_epsilon()
        assert not stripped.has_epsilon
        for word in [(), ("a",), ("b",), ("a", "b"), ("b", "a")]:
            assert nfa.accepts(word) == stripped.accepts(word)

    def test_has_epsilon_flag_matches_a_transition_scan(self):
        def scanned(nfa):
            return any(symbol is EPSILON for _s, symbol, _t in nfa.transitions())

        plain = ab_star()
        moving = NFA({0, 1}, {"a"}, [(0, EPSILON, 1), (1, "a", 1)], 0, {1})
        cases = {
            "init plain": plain,
            "init epsilon": moving,
            "with_finals plain": plain.with_finals({1}),
            "with_finals epsilon": moving.with_finals({0}),
            "with_initial plain": plain.with_initial(1),
            "with_initial epsilon": moving.with_initial(1),
            "without_epsilon": moving.without_epsilon(),
            "reverse": plain.reverse(),
            "reverse without finals": plain.with_finals(()).reverse(),
        }
        for name, nfa in cases.items():
            assert nfa.has_epsilon == scanned(nfa), name
        assert {nfa.has_epsilon for nfa in cases.values()} == {True, False}


class TestEmptinessAndWitness:
    def test_empty(self):
        nfa = NFA({0, 1}, {"a"}, [(0, "a", 0)], 0, {1})
        assert nfa.is_empty()
        assert nfa.shortest_word() is None

    def test_nonempty(self):
        assert not ab_star().is_empty()
        assert ab_star().shortest_word() == ()

    def test_shortest_nontrivial(self):
        nfa = NFA({0, 1, 2}, {"a", "b"}, [(0, "a", 1), (1, "b", 2)], 0, {2})
        assert nfa.shortest_word() == ("a", "b")

    def test_accepts_some_over(self):
        nfa = ab_star()
        assert nfa.accepts_some_over({"a", "b"})
        assert nfa.accepts_some_over(set())  # empty word
        only_a = NFA({0, 1}, {"a", "b"}, [(0, "b", 1)], 0, {1})
        assert not only_a.accepts_some_over({"a"})
        assert only_a.accepts_some_over({"b"})


class TestProductWord:
    def test_accepts_product(self):
        nfa = ab_star()
        assert nfa.accepts_product([{"a", "b"}, {"b"}])
        assert not nfa.accepts_product([{"b"}, {"b"}])
        assert nfa.accepts_product([])

    def test_run_sets(self):
        nfa = ab_star()
        sets = nfa.product_run_sets([{"a"}, {"b"}])
        assert sets[0] == {0}
        assert sets[1] == {1}
        assert sets[2] == {0}


class TestCombinators:
    def test_product_is_intersection(self):
        even_a = NFA({0, 1}, {"a"}, [(0, "a", 1), (1, "a", 0)], 0, {0})
        at_least_one = NFA({0, 1}, {"a"}, [(0, "a", 1), (1, "a", 1)], 0, {1})
        both = product_nfa(even_a, at_least_one)
        assert not both.accepts(())
        assert not both.accepts(("a",))
        assert both.accepts(("a", "a"))

    def test_union(self):
        u = union_nfa(literal_nfa(("a",)), literal_nfa(("b",)))
        assert u.accepts(("a",))
        assert u.accepts(("b",))
        assert not u.accepts(())
        assert not u.accepts(("a", "b"))

    def test_concat(self):
        c = concat_nfa(literal_nfa(("a",)), literal_nfa(("b",)))
        assert c.accepts(("a", "b"))
        assert not c.accepts(("a",))

    def test_star(self):
        s = star_nfa(literal_nfa(("a", "b")))
        assert s.accepts(())
        assert s.accepts(("a", "b", "a", "b"))
        assert not s.accepts(("a",))

    def test_trim_keeps_language(self):
        nfa = NFA(
            {0, 1, 2, 3},
            {"a"},
            [(0, "a", 1), (0, "a", 2), (2, "a", 2)],  # 2 is a trap, 3 unreachable
            0,
            {1},
        )
        trimmed = nfa.trim()
        assert trimmed.accepts(("a",))
        assert not trimmed.accepts(("a", "a"))
        assert len(trimmed.states) == 2

    def test_with_initial_shares_language_structure(self):
        nfa = ab_star()
        from_one = nfa.with_initial(1)
        assert from_one.accepts(("b",))
        assert not from_one.accepts(())
        with pytest.raises(ValueError):
            nfa.with_initial(99)

    def test_reverse(self):
        nfa = NFA({0, 1, 2}, {"a", "b"}, [(0, "a", 1), (1, "b", 2)], 0, {2})
        rev = nfa.reverse()
        assert rev.accepts(("b", "a"))
        assert not rev.accepts(("a", "b"))

    def test_map_symbols(self):
        mapped = ab_star().map_symbols({"a": "x"})
        assert mapped.accepts(("x", "b"))


def words_up_to(alphabet, length):
    for n in range(length + 1):
        yield from itertools.product(alphabet, repeat=n)


class TestSharedStructure:
    """``with_finals`` siblings share one transition map; ``union_nfa``
    merges their final sets instead of renaming and copying."""

    def base(self) -> NFA:
        return NFA(
            {0, 1, 2, 3},
            {"a", "b"},
            [(0, "a", 1), (1, "b", 0), (1, "a", 2), (2, "b", 2), (2, "a", 3), (3, "a", 0)],
            0,
            (),
        )

    def test_siblings_share_a_structure_key(self):
        base = self.base()
        assert base.with_finals({1}).structure_key() == base.structure_key()
        assert base.with_initial(1).structure_key() != base.structure_key()
        assert base.map_symbols({}).structure_key() != base.structure_key()

    def test_union_of_siblings_matches_the_renamed_union(self):
        base = self.base()
        finals = [{1}, {0, 3}, {2}, set()]
        shared = unshared = base.with_finals(finals[0])
        for part in finals[1:]:
            sibling = base.with_finals(part)
            shared = union_nfa(shared, sibling)
            # A rebuilt copy has its own map, so it takes the renaming path.
            unshared = union_nfa(unshared, sibling.map_symbols({}))
        assert shared.structure_key() == base.structure_key()
        assert shared.states == base.states
        assert len(unshared.states) > len(base.states)
        for word in words_up_to("ab", 7):
            assert shared.accepts(word) == unshared.accepts(word), word

    def test_union_with_another_initial_state_renames(self):
        base = self.base()
        left, right = base.with_finals({2}), base.with_initial(2).with_finals({3})
        union = union_nfa(left, right)
        assert union.structure_key() != base.structure_key()
        for word in words_up_to("ab", 6):
            assert union.accepts(word) == (left.accepts(word) or right.accepts(word)), word


def pair_reference(left: NFA, right: NFA) -> NFA:
    """The pair product as NTA intersection built it before
    :func:`pair_nfa`: a list of transition triples, read through
    ``symbols_from``/``step`` and grouped by the public constructor."""
    initial = (left.initial, right.initial)
    states = {initial}
    transitions = []
    stack = [initial]
    while stack:
        l_state, r_state = stack.pop()
        for l_symbol in left.symbols_from(l_state):
            for r_symbol in right.symbols_from(r_state):
                pair_symbol = (l_symbol, r_symbol)
                for l_target in left.step(l_state, l_symbol):
                    for r_target in right.step(r_state, r_symbol):
                        pair = (l_target, r_target)
                        transitions.append(((l_state, r_state), pair_symbol, pair))
                        if pair not in states:
                            states.add(pair)
                            stack.append(pair)
    alphabet = set(itertools.product(left.alphabet, right.alphabet))
    finals = {(l, r) for (l, r) in states if l in left.finals and r in right.finals}
    return NFA(states, alphabet, transitions, initial, finals)


def assert_same_pair_product(left: NFA, right: NFA) -> NFA:
    """``pair_nfa(left, right)``, checked against :func:`pair_reference`."""
    product, reference = pair_nfa(left, right), pair_reference(left, right)
    assert product.states == reference.states
    assert product.finals == reference.finals
    assert product.alphabet == reference.alphabet
    assert product.initial == reference.initial
    assert not product.has_epsilon
    assert list(product.transitions()) == list(reference.transitions())
    return product


class TestPairNfa:
    """``pair_nfa`` builds its transition map in place.  It must equal
    the triple-built reference, transition order included: that order
    decides which of several equally small witnesses is found."""

    def fan(self) -> NFA:
        """Six targets on one symbol: a set that large can iterate in
        another order once copied into a frozenset by ``step``."""
        hubs = [("q", i) for i in range(6)]
        transitions = [(hubs[0], "a", hub) for hub in hubs]
        transitions += [(hub, "b", hubs[0]) for hub in hubs[1:]]
        return NFA(hubs, {"a", "b", "c"}, transitions, hubs[0], {hubs[0], hubs[3]})

    def test_matches_the_reference(self):
        for left in (ab_star(), self.fan()):
            for right in (ab_star(), self.fan(), ab_star().with_finals(())):
                assert_same_pair_product(left, right)

    def test_reads_pairs_of_words(self):
        left, right = self.fan(), ab_star()
        product = pair_nfa(left, right)
        for n in range(5):
            for left_word in itertools.product("ab", repeat=n):
                for right_word in itertools.product("ab", repeat=n):
                    expected = left.accepts(left_word) and right.accepts(right_word)
                    assert product.accepts(tuple(zip(left_word, right_word))) == expected

    def test_epsilon_input_is_rejected(self):
        moving = NFA({0, 1}, {"a"}, [(0, EPSILON, 1), (1, "a", 1)], 0, {1})
        with pytest.raises(ValueError):
            pair_nfa(moving, ab_star())
        with pytest.raises(ValueError):
            pair_nfa(ab_star(), moving)
        assert_same_pair_product(moving.without_epsilon(), ab_star())

    def test_example42_products_match_the_reference(self, monkeypatch):
        """Every pair product behind the intersection of Example 4.2's
        inverse type (against Figure 2) with the recipes schema."""
        import repro.automata.nta as nta_module
        from repro.automata import intersect_nta
        from repro.core.typecheck import inverse_type_nta
        from repro.paper import example42_transducer
        from tests.test_core_typecheck import RECIPES, figure2_dtd

        operands = []

        def recording(left, right):
            operands.append((left, right))
            return pair_nfa(left, right)

        monkeypatch.setattr(nta_module, "pair_nfa", recording)
        bad = inverse_type_nta(example42_transducer(), figure2_dtd(), RECIPES.alphabet)
        intersect_nta(bad, RECIPES)
        assert operands
        for left, right in operands:
            assert_same_pair_product(left, right)


class TestLanguageComparison:
    def test_equivalence(self):
        one = star_nfa(literal_nfa(("a",)))
        other = NFA({0}, {"a"}, [(0, "a", 0)], 0, {0})
        assert one.equivalent_to(other)
        assert not one.equivalent_to(literal_nfa(("a",)))

    def test_universality(self):
        everything = NFA({0}, {"a", "b"}, [(0, "a", 0), (0, "b", 0)], 0, {0})
        assert everything.is_universal_over({"a", "b"})
        assert not ab_star().is_universal_over({"a", "b"})


class TestDFA:
    def test_determinize_agrees(self):
        nfa = union_nfa(literal_nfa(("a", "a")), star_nfa(literal_nfa(("b",))))
        dfa = determinize(nfa.without_epsilon())
        for word in [(), ("a",), ("a", "a"), ("b", "b", "b"), ("a", "b")]:
            assert dfa.accepts(word) == nfa.accepts(word)

    def test_complement(self):
        dfa = determinize(ab_star())
        comp = dfa.complement()
        for word in [(), ("a",), ("a", "b"), ("b",)]:
            assert comp.accepts(word) != dfa.accepts(word)

    def test_minimize(self):
        from repro.strings import minimize

        nfa = union_nfa(literal_nfa(("a",)), literal_nfa(("a",)))
        dfa = minimize(determinize(nfa.without_epsilon()))
        # minimal DFA for {a}: start, accept, sink
        assert len(dfa.states) == 3
        assert dfa.accepts(("a",))
        assert not dfa.accepts(("a", "a"))

    def test_shortest_accepted(self):
        dfa = determinize(literal_nfa(("a", "b")))
        assert dfa.shortest_accepted() == ("a", "b")
        assert determinize(NFA({0}, {"a"}, [], 0, set())).shortest_accepted() is None

    def test_symmetric_difference_empty_iff_equivalent(self):
        d1 = determinize(star_nfa(literal_nfa(("a",))), alphabet={"a"})
        d2 = determinize(NFA({0}, {"a"}, [(0, "a", 0)], 0, {0}), alphabet={"a"})
        assert d1.symmetric_difference(d2).is_empty()
