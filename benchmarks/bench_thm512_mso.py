"""E8 — Theorem 5.12 and the §5.3 lower bound: DTL^MSO.

Two series:

1. decision cost for a small DTL^MSO transducer (decidability in
   practice, Theorem 5.12);
2. the non-elementary tower, measured: compiled automaton size and
   compile time of the nested-negation sentence family at depths
   0, 1, 2 — each added negation level inserts a determinization, so
   sizes/times must grow super-linearly from floor to floor (the first
   floors of the tower the paper's final §5.3 remark predicts; genuine
   non-elementary instances are not computable, see DESIGN.md
   substitution note 2).
"""


from conftest import report, wall_time

from repro.automata import TEXT, nta_from_rules
from repro import is_text_preserving
from repro.core import Call, DTLTransducer, MSOBinary, MSOUnary
from repro.mso import And, Child, Lab, clear_compile_cache, compile_mso
from repro.workloads import nested_negation_sentence


def cold(fn, *args):
    """``fn(*args)`` from an empty compile cache, so that a measurement
    records the compilation instead of cache hits."""
    clear_compile_cache()
    return fn(*args)


def mso_transducer():
    """A DTL^MSO program with native-MSO patterns: select the b-children
    of the root, keeping their text."""
    alpha = And(Child("x", "y"), Lab("b", "y"))
    return DTLTransducer(
        {"q0", "q"},
        [
            ("q0", MSOUnary(Lab("r", "x"), "x"), ("r", [Call("q", MSOBinary(alpha, "x", "y"))])),
            ("q", MSOUnary(Lab("b", "x"), "x"), ("b", [Call("q", "down")])),
        ],
        {"q"},
        "q0",
    )


def small_schema():
    return nta_from_rules(
        alphabet={"r", "a", "b"},
        rules={
            ("q0", "r"): "(qa + qb)*",
            ("qa", "a"): "qt",
            ("qb", "b"): "qt",
            ("qt", TEXT): "eps",
        },
        initial="q0",
    )


class TestDtlMso:
    def test_decidable_in_practice(self, benchmark_or_timer):
        transducer = mso_transducer()
        schema = small_schema()
        clear_compile_cache()
        verdict, seconds = wall_time(is_text_preserving, transducer, schema)
        assert verdict
        report(
            "E8: DTL^MSO decision (Theorem 5.12)",
            [("states", len(transducer.states)), ("verdict", verdict), ("seconds", "%.2f" % seconds)],
        )
        benchmark_or_timer(lambda: cold(is_text_preserving, transducer, schema))


class TestTowerGrowth:
    def test_nested_negation_floors(self, benchmark_or_timer):
        sigma = ("a", "b")
        rows = []
        sizes = []
        times = []
        for depth in (0, 1, 2):
            clear_compile_cache()
            pattern, seconds = wall_time(compile_mso, nested_negation_sentence(depth), sigma)
            size = len(pattern.bta.states) + pattern.bta.size
            rows.append((depth, size, "%.3f" % seconds))
            sizes.append(size)
            times.append(seconds)
        report(
            "E8: nested-negation tower (floors 0..2)",
            rows,
            header=("depth", "automaton size", "seconds"),
        )
        # Shape: every floor strictly larger than the previous one.
        assert sizes[0] < sizes[1] < sizes[2]
        benchmark_or_timer(lambda: cold(compile_mso, nested_negation_sentence(1), sigma))

    def test_floor_semantics_stable(self, benchmark_or_timer):
        # The compiled floors agree with direct evaluation (sanity of
        # the measured objects).
        from repro.mso import mso_holds
        from repro.trees import parse_tree

        sigma = ("a", "b")
        trees = [parse_tree(s) for s in ("a", "b", "a(b)", "b(a a)", "b(a(b))")]
        for depth in (0, 1, 2):
            sentence = nested_negation_sentence(depth)
            pattern = compile_mso(sentence, sigma)
            for t in trees:
                from repro.mso import encode_marked

                assert pattern.bta.accepts(encode_marked(t, {})) == mso_holds(t, sentence)
        benchmark_or_timer(lambda: cold(compile_mso, nested_negation_sentence(0), sigma))
