"""E13 — the §6 contrast: typechecking (EXPTIME) vs text-preservation
(PTIME) for top-down uniform transducers.

Section 6: "typechecking top-down uniform tree transducers against
unranked tree automata is already EXPTIME-complete while testing
whether one is text-preserving is in PTIME for the corresponding
setting."  Both problems are implemented here; this bench decides both
on the same instances and reports the growth of the inverse-type
construction (the exponential summary space) next to the flat PTIME
decision.
"""


from conftest import report, wall_time

from repro.automata import TEXT, nta_from_rules, universal_nta
from repro.core import TopDownTransducer, is_text_preserving
from repro.core.typecheck import inverse_type_nta, typechecks
from repro.paper import example23_dtd, example42_transducer
from repro.schema import DTD, dtd_to_nta


def output_dtd_with_counter(n: int) -> DTD:
    """Output type demanding a multiple-of-``n`` item count — content
    DFAs of size n drive the summary space up."""
    pattern = "(" + " ".join(["text"] * n) + ")*"
    return DTD(
        content={
            "recipes": "recipe*",
            "recipe": "description . ingredients . instructions",
            "description": "text",
            "ingredients": pattern,
            "instructions": "(br + text)*",
            "br": "eps",
        },
        start={"recipes"},
    )


class TestSection6Contrast:
    def test_both_problems_same_instance(self, benchmark_or_timer):
        schema = dtd_to_nta(example23_dtd())
        transducer = example42_transducer()
        preserving, ptime_seconds = wall_time(is_text_preserving, transducer, schema)
        well_typed, typecheck_seconds = wall_time(
            typechecks, transducer, schema, output_dtd_with_counter(1)
        )
        assert preserving and well_typed
        report(
            "E13: Example 4.2 — both §6 problems",
            [
                ("text-preserving (PTIME)", "%s, %.4f s" % (preserving, ptime_seconds)),
                ("typechecks (EXPTIME constr.)", "%s, %.4f s" % (well_typed, typecheck_seconds)),
            ],
        )
        benchmark_or_timer(lambda: is_text_preserving(transducer, schema))

    def test_summary_space_growth(self, benchmark_or_timer):
        schema = dtd_to_nta(example23_dtd())
        # Relative to every tree over the labels, the inverse type is the
        # classical one, whose growth this series measures.
        universe = universal_nta(schema.alphabet)
        transducer = example42_transducer()
        rows = []
        sizes = []
        for n in (1, 2, 3, 4):
            out = output_dtd_with_counter(n)
            automaton, seconds = wall_time(
                inverse_type_nta, transducer, out, universe, False
            )
            rows.append((n, len(automaton.states), "%.3f" % seconds))
            sizes.append(len(automaton.states))
        ptime_cost = wall_time(is_text_preserving, transducer, schema)[1]
        rows.append(("PTIME decision", "-", "%.4f" % ptime_cost))
        report(
            "E13: inverse-type automaton vs content-DFA size n",
            rows,
            header=("n", "states", "seconds"),
        )
        # Shape: the summary space grows with n; the PTIME side is flat.
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]
        benchmark_or_timer(
            lambda: inverse_type_nta(
                transducer, output_dtd_with_counter(2), universe, False
            )
        )

    def test_verdicts_differ_between_problems(self, benchmark_or_timer):
        """The two properties are genuinely independent: a transducer
        can typecheck while scrambling text, and preserve text while
        failing the output type."""
        schema = nta_from_rules(
            alphabet={"r", "a", "b"},
            rules={
                ("q0", "r"): "qa qb",
                ("qa", "a"): "qt",
                ("qb", "b"): "qt",
                ("qt", TEXT): "eps",
            },
            initial="q0",
        )
        swapper = TopDownTransducer(
            states={"q0", "qa", "qb", "qt"},
            rules={
                ("q0", "r"): "r(qb qa)",
                ("qa", "a"): "a(qt)",
                ("qb", "b"): "b(qt)",
                ("qt", "text"): "text",
            },
            initial="q0",
        )
        out = DTD(content={"r": "b . a", "a": "text", "b": "text"}, start={"r"})
        assert typechecks(swapper, schema, out)  # well-typed...
        assert not is_text_preserving(swapper, schema)  # ...but scrambles

        keeper = TopDownTransducer(
            states={"q0", "qa", "qb", "qt"},
            rules={
                ("q0", "r"): "r(qa qb)",
                ("qa", "a"): "a(qt)",
                ("qb", "b"): "b(qt)",
                ("qt", "text"): "text",
            },
            initial="q0",
        )
        strict = DTD(content={"r": "a", "a": "text"}, start={"r"})
        assert is_text_preserving(keeper, schema)  # order kept...
        assert not typechecks(keeper, schema, strict)  # ...type broken
        report(
            "E13: independence of the two properties",
            [
                ("swapper", "typechecks, NOT preserving"),
                ("keeper", "preserving, NOT well-typed"),
            ],
        )
        benchmark_or_timer(lambda: typechecks(swapper, schema, out))
