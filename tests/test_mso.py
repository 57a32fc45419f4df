"""Tests for MSO: direct evaluation and automata compilation agree."""

import pytest

from repro import obs
from repro.mso import (
    And,
    Child,
    Eq,
    ExistsFO,
    ExistsSO,
    FO,
    In,
    Lab,
    MSOEvaluator,
    Not,
    SO,
    Sibling,
    clear_compile_cache,
    compile_mso,
    forall_fo,
    free_variables,
    implies,
    mso_holds,
    mso_sentence_holds,
    sentence_bta,
    variable_kinds,
)
from repro.trees import parse_tree
from repro.workloads import nested_negation_sentence


T = parse_tree('r(a(x y) b("v") a)')
SIGMA = ("r", "a", "b", "x", "y")


class TestAst:
    def test_free_variables(self):
        phi = And(Lab("a", "x"), ExistsFO("y", Child("x", "y")))
        assert free_variables(phi) == {"x": FO}

    def test_kinds(self):
        phi = ExistsSO("X", In("x", "X"))
        assert variable_kinds(phi) == {"X": SO, "x": FO}

    def test_kind_conflict(self):
        with pytest.raises(ValueError):
            variable_kinds(And(In("x", "Z"), Lab("a", "Z")))

    def test_shadowing_not_free(self):
        phi = And(Lab("a", "x"), ExistsFO("x", Lab("b", "x")))
        assert free_variables(phi) == {"x": FO}


class TestDirectEvaluation:
    def setup_method(self):
        self.ev = MSOEvaluator(T)

    def test_lab(self):
        assert self.ev.holds(Lab("a", "x"), {"x": (1, 1)})
        assert not self.ev.holds(Lab("a", "x"), {"x": (1, 2)})

    def test_lab_text(self):
        assert self.ev.holds(Lab("text", "x"), {"x": (1, 2, 1)})
        assert not self.ev.holds(Lab("text", "x"), {"x": (1, 2)})

    def test_child(self):
        assert self.ev.holds(Child("x", "y"), {"x": (1,), "y": (1, 1)})
        assert not self.ev.holds(Child("x", "y"), {"x": (1,), "y": (1, 1, 1)})

    def test_sibling_is_transitive_order(self):
        assert self.ev.holds(Sibling("x", "y"), {"x": (1, 1), "y": (1, 2)})
        assert self.ev.holds(Sibling("x", "y"), {"x": (1, 1), "y": (1, 3)})
        assert not self.ev.holds(Sibling("x", "y"), {"x": (1, 2), "y": (1, 1)})
        assert not self.ev.holds(Sibling("x", "y"), {"x": (1,), "y": (1, 1)})

    def test_eq_and_in(self):
        assert self.ev.holds(Eq("x", "y"), {"x": (1, 1), "y": (1, 1)})
        assert self.ev.holds(
            In("x", "X"), {"x": (1, 1), "X": frozenset({(1, 1), (1, 2)})}
        )
        assert not self.ev.holds(In("x", "X"), {"x": (1, 3), "X": frozenset()})

    def test_quantifiers(self):
        has_a = ExistsFO("x", Lab("a", "x"))
        assert self.ev.holds(has_a)
        assert not mso_holds(parse_tree("r(b)"), has_a)

    def test_forall(self):
        # Every a-labelled node has a parent labelled r.
        phi = forall_fo(
            "x",
            implies(Lab("a", "x"), ExistsFO("p", And(Child("p", "x"), Lab("r", "p")))),
        )
        assert mso_holds(T, phi)
        assert not mso_holds(parse_tree("r(b(a))"), phi)

    def test_second_order(self):
        # There is a set containing all a-nodes and no b-node.
        phi = ExistsSO(
            "X",
            forall_fo(
                "x",
                And(
                    implies(Lab("a", "x"), In("x", "X")),
                    implies(Lab("b", "x"), Not(In("x", "X"))),
                ),
            ),
        )
        assert mso_holds(T, phi)

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            self.ev.holds(Lab("a", "x"))

    def test_satisfying_nodes(self):
        assert MSOEvaluator(T).satisfying_nodes(Lab("a", "x"), "x") == ((1, 1), (1, 3))


SMALL_TREES = [
    parse_tree("a"),
    parse_tree("a(b)"),
    parse_tree('a("v")'),
    parse_tree("a(b c)"),
    parse_tree("a(b(c) c)"),
    parse_tree('a(b "v" c(b))'),
]

SENTENCES = [
    ("has-a-b", ExistsFO("x", Lab("b", "x"))),
    ("has-child-pair", ExistsFO("x", ExistsFO("y", Child("x", "y")))),
    (
        "b-before-c-sibling",
        ExistsFO("x", ExistsFO("y", And(Sibling("x", "y"), And(Lab("b", "x"), Lab("c", "y"))))),
    ),
    ("no-text", Not(ExistsFO("x", Lab("text", "x")))),
    (
        "all-b-are-leaves",
        forall_fo("x", implies(Lab("b", "x"), Not(ExistsFO("y", Child("x", "y"))))),
    ),
    (
        "so-closure",
        ExistsSO(
            "X",
            And(
                ExistsFO("r", And(Not(ExistsFO("p", Child("p", "r"))), In("r", "X"))),
                forall_fo(
                    "x",
                    implies(
                        In("x", "X"),
                        Not(ExistsFO("y", And(Child("x", "y"), Not(In("y", "X"))))),
                    ),
                ),
            ),
        ),
    ),
]


class TestCompilation:
    @pytest.mark.parametrize("name,sentence", SENTENCES)
    def test_sentences_agree_with_direct_eval(self, name, sentence):
        sigma = ("a", "b", "c")
        for t in SMALL_TREES:
            direct = mso_holds(t, sentence)
            compiled = mso_sentence_holds(t, sentence, sigma)
            assert direct == compiled, (name, t)

    def test_unary_pattern_agrees(self):
        sigma = ("a", "b", "c")
        phi = And(Lab("b", "x"), ExistsFO("y", Child("x", "y")))
        pattern = compile_mso(phi, sigma)
        for t in SMALL_TREES:
            ev = MSOEvaluator(t)
            for node in t.nodes():
                assert pattern.holds(t, {"x": node}) == ev.holds(phi, {"x": node}), (
                    t,
                    node,
                )

    def test_binary_pattern_agrees(self):
        sigma = ("a", "b", "c")
        alpha = And(Child("x", "y"), Lab("c", "y"))
        pattern = compile_mso(alpha, sigma)
        for t in SMALL_TREES:
            ev = MSOEvaluator(t)
            for u in t.nodes():
                for v in t.nodes():
                    assert pattern.holds(t, {"x": u, "y": v}) == ev.holds(
                        alpha, {"x": u, "y": v}
                    ), (t, u, v)

    def test_so_pattern_agrees(self):
        sigma = ("a", "b")
        phi = And(In("x", "X"), Lab("a", "x"))
        pattern = compile_mso(phi, sigma)
        t = parse_tree("a(b a)")
        ev = MSOEvaluator(t)
        nodes = list(t.nodes())
        import itertools

        for node in nodes:
            for r in range(len(nodes) + 1):
                for combo in itertools.combinations(nodes, r):
                    assignment = {"x": node, "X": frozenset(combo)}
                    assert pattern.holds(t, assignment) == ev.holds(phi, assignment)

    def test_witness_tree(self):
        sigma = ("a", "b")
        sentence = ExistsFO("x", ExistsFO("y", And(Lab("b", "x"), Child("x", "y"))))
        pattern = compile_mso(sentence, sigma)
        witness = pattern.witness_tree()
        assert witness is not None
        assert mso_holds(witness, sentence)

    def test_unsatisfiable_sentence(self):
        sigma = ("a",)
        # A node that is its own child cannot exist.
        contradiction = ExistsFO("x", Child("x", "x"))
        assert sentence_bta(contradiction, sigma).is_empty()

    def test_text_label(self):
        sigma = ("a",)
        sentence = ExistsFO("x", Lab("text", "x"))
        assert mso_sentence_holds(parse_tree('a("v")'), sentence, sigma)
        assert not mso_sentence_holds(parse_tree("a"), sentence, sigma)


class TestNegationTower:
    """The §5.3 tower of benchmark E8: every negation level adds a
    subset construction.  The exact sizes pin the automata built."""

    SIGMA = ("a", "b")

    def test_floor_sizes(self):
        sizes = []
        for depth in (0, 1, 2):
            clear_compile_cache()
            bta = compile_mso(nested_negation_sentence(depth), self.SIGMA).bta
            sizes.append(len(bta.states) + bta.size)
        assert sizes == [66, 146, 366]

    def test_floor_two_state_counters(self):
        clear_compile_cache()
        with obs.recording() as recorder:
            compile_mso(nested_negation_sentence(2), self.SIGMA)
        assert recorder.counters["mso.node_states"] == 85
        assert recorder.counters["mso.negation.output_states"] == 25
        assert recorder.gauges["mso.max_bta_states"] == 11
