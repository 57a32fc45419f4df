"""Property-based tests on automata operations (hypothesis)."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata import NTA, TEXT, intersect_nta, nta_from_rules, union_nta
from repro.automata.enumerate import enumerate_trees
from repro.strings import NFA, determinize, minimize, parse_regex
from repro.trees import Tree
from tests.test_strings_nfa import assert_same_pair_product

LABELS = ("a", "b")

words = st.lists(st.sampled_from(LABELS), max_size=7).map(tuple)

REGEXES = [
    "a*",
    "(a b)*",
    "a + b a",
    "(a + b)* a",
    "a? b* a?",
    "a a + b b",
]


def trees_over_labels():
    return st.recursive(
        st.one_of(
            st.sampled_from(LABELS).map(lambda l: Tree(l)),
            st.just(Tree("v", is_text=True)),
        ),
        lambda children: st.tuples(
            st.sampled_from(LABELS), st.lists(children, max_size=3)
        ).map(lambda pair: Tree(pair[0], pair[1])),
        max_leaves=8,
    ).filter(lambda t: not t.is_text)


class TestStringAutomataProperties:
    @pytest.mark.parametrize("source", REGEXES)
    @given(word=words)
    def test_minimize_preserves_language(self, source, word):
        nfa = parse_regex(source).to_nfa()
        dfa = determinize(nfa.without_epsilon(), alphabet=set(LABELS))
        small = minimize(dfa)
        assert small.accepts(word) == dfa.accepts(word)
        assert len(small.states) <= len(dfa.reachable_states())

    @pytest.mark.parametrize("source", REGEXES)
    @given(word=words)
    def test_complement_is_involution(self, source, word):
        dfa = determinize(
            parse_regex(source).to_nfa().without_epsilon(), alphabet=set(LABELS)
        )
        assert dfa.complement().complement().accepts(word) == dfa.accepts(word)
        assert dfa.complement().accepts(word) != dfa.accepts(word)

    @given(word=words)
    def test_reverse_reverses(self, word):
        nfa = parse_regex("a (a + b)* b").to_nfa()
        assert nfa.reverse().accepts(tuple(reversed(word))) == nfa.accepts(word)


def schema_one():
    return nta_from_rules(
        alphabet=set(LABELS),
        rules={
            ("q", "a"): "q*",
            ("q", "b"): "qt?",
            ("qt", TEXT): "eps",
        },
        initial="q",
    )


def schema_two():
    return nta_from_rules(
        alphabet=set(LABELS),
        rules={
            ("p", "a"): "p p + pt",
            ("p", "b"): "p*",
            ("pt", TEXT): "eps",
        },
        initial="p",
    )


class TestNtaBooleanProperties:
    @given(t=trees_over_labels())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_intersection_is_conjunction(self, t):
        one, two = schema_one(), schema_two()
        assert intersect_nta(one, two).accepts(t) == (one.accepts(t) and two.accepts(t))

    @given(t=trees_over_labels())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_union_is_disjunction(self, t):
        one, two = schema_one(), schema_two()
        assert union_nta(one, two).accepts(t) == (one.accepts(t) or two.accepts(t))

    @given(t=trees_over_labels())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_trim_preserves_language(self, t):
        one = schema_one()
        assert one.trim().accepts(t) == one.accepts(t)

    def test_intersection_witness_in_both(self):
        product = intersect_nta(schema_one(), schema_two())
        witness = product.witness()
        if witness is not None:
            assert schema_one().accepts(witness)
            assert schema_two().accepts(witness)


def shared_schema():
    """An NTA whose element horizontals are ``with_finals`` siblings of
    one transition map over its states, as inverse types are built."""
    base = NFA(
        {0, 1, 2},
        {"s", "t", "u"},
        [(0, "s", 1), (0, "t", 2), (1, "s", 1), (1, "u", 2), (2, "t", 0), (2, "u", 2)],
        0,
        (),
    )
    leaf = NFA({0}, (), (), 0, {0})
    delta = {
        ("s", "a"): base.with_finals({1}),
        ("s", "b"): base.with_finals({2}),
        ("t", "a"): base.with_finals({1, 2}),
        ("t", "b"): base.with_finals({0}),
        ("t", TEXT): leaf,
        ("u", "a"): base.with_finals({0}),
        ("u", TEXT): leaf,
    }
    return NTA({"s", "t", "u"}, set(LABELS), delta, "s")


def unshared_copy(nta):
    """The same NTA with every horizontal rebuilt on its own map."""
    delta = {key: horizontal.map_symbols({}) for key, horizontal in nta.delta.items()}
    return NTA(nta.states, nta.alphabet, delta, nta.initial)


def shared_products():
    """``(shared, unshared)`` intersections, the shared NTA on either side."""
    shared, unshared = shared_schema(), unshared_copy(shared_schema())
    for other in (schema_one(), schema_two()):
        yield intersect_nta(shared, other), intersect_nta(unshared, other)
        yield intersect_nta(other, shared), intersect_nta(other, unshared)


class TestSharedStructureIntersection:
    @given(t=trees_over_labels())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_shared_and_unshared_accept_the_same_trees(self, t):
        for shared, unshared in shared_products():
            assert shared.accepts(t) == unshared.accepts(t)
        assert intersect_nta(shared_schema(), schema_one()).accepts(t) == (
            shared_schema().accepts(t) and schema_one().accepts(t)
        )

    def test_same_witness_size_with_fewer_maps(self):
        for shared, unshared in shared_products():
            witness, reference = shared.witness(), unshared.witness()
            assert witness is not None and witness == reference
            assert shared.accepts(witness) and unshared.accepts(witness)
            maps = {horizontal.structure_key() for horizontal in shared.delta.values()}
            assert len(maps) < len(shared.delta)


STATES = ("s0", "s1", "s2")


@st.composite
def small_ntas(draw):
    """Small NTAs over three states, labels ``a``/``b`` and text leaves,
    with horizontal languages that make equally small trees common.
    Rules are added in a drawn order."""
    keys = [(state, symbol) for state in STATES for symbol in LABELS + (TEXT,)]
    rules = {}
    for state, symbol in draw(st.permutations(keys)):
        if not draw(st.booleans()):
            continue
        if symbol == TEXT:
            rules[(state, symbol)] = "eps"
            continue
        one, two = draw(st.sampled_from(STATES)), draw(st.sampled_from(STATES))
        rules[(state, symbol)] = draw(st.sampled_from(
            ["eps", one, one + "*", one + " " + two, one + " + " + two, one + "? " + two]
        ))
    return nta_from_rules(alphabet=set(LABELS), rules=rules, initial="s0")


def tree_key(t):
    """The witness order, spelled out independently: size, label,
    ``is_text``, then the children left to right."""
    return (t.size, t.label, t.is_text, tuple(tree_key(child) for child in t.children))


#: Trees up to this size are enumerated by brute force.
ENUMERATION_BOUND = 8


class TestCanonicalWitness:
    @given(nta=small_ntas())
    @settings(max_examples=150, deadline=None)
    def test_witness_is_the_least_enumerated_tree(self, nta):
        witness = nta.witness()
        bound = ENUMERATION_BOUND if witness is None else min(witness.size, ENUMERATION_BOUND)
        trees = list(enumerate_trees(nta, bound))
        if witness is None or witness.size > ENUMERATION_BOUND:
            assert trees == []
        else:
            assert min(trees, key=tree_key) == witness

    @given(nta=small_ntas(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_witness_ignores_the_order_of_delta(self, nta, data):
        entries = data.draw(st.permutations(list(nta.delta.items())))
        shuffled = NTA(nta.states, nta.alphabet, dict(entries), nta.initial)
        assert shuffled.witness() == nta.witness()
        product, shuffled_product = (
            intersect_nta(automaton, schema_two()) for automaton in (nta, shuffled)
        )
        assert shuffled_product.witness() == product.witness()


SYMBOLS = ("a", "b", "c")


@st.composite
def epsilon_free_nfas(draw):
    """Small epsilon-free NFAs over tuple states.  Moves are drawn as
    (source, symbol, target set) so that sets of five or more targets,
    whose iteration order can change when copied, come up often."""
    size = draw(st.integers(min_value=1, max_value=8))
    states = st.integers(min_value=0, max_value=size - 1).map(lambda i: ("q", i))
    moves = draw(st.lists(st.tuples(states, st.sampled_from(SYMBOLS), st.sets(states)), max_size=8))
    transitions = [
        (source, symbol, target) for source, symbol, targets in moves for target in targets
    ]
    alphabet = draw(st.sets(st.sampled_from(SYMBOLS + ("d",))))
    return NFA(
        [("q", i) for i in range(size)],
        alphabet,
        transitions,
        draw(states),
        draw(st.sets(states)),
    )


class TestPairNfaProperties:
    @given(
        left=epsilon_free_nfas(),
        right=epsilon_free_nfas(),
        word=st.lists(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS)), max_size=5),
    )
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_pair_nfa_matches_the_reference(self, left, right, word):
        product = assert_same_pair_product(left, right)
        left_word = tuple(symbol for symbol, _ in word)
        right_word = tuple(symbol for _, symbol in word)
        assert product.accepts(tuple(word)) == (
            left.accepts(left_word) and right.accepts(right_word)
        )
