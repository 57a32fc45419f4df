"""Tests for the top-level facade API."""

import pytest

import repro
from repro import (
    Call,
    DTD,
    DTLTransducer,
    TopDownTransducer,
    counter_example,
    is_copying,
    is_rearranging,
    is_text_preserving,
    maximal_safe_subschema,
    parse_tree,
)
from repro.paper import example23_dtd, example42_transducer


class TestFacade:
    def test_accepts_dtd_directly(self):
        assert is_text_preserving(example42_transducer(), example23_dtd())

    def test_accepts_nta(self):
        from repro.schema import dtd_to_nta

        assert is_text_preserving(example42_transducer(), dtd_to_nta(example23_dtd()))

    def test_dispatches_on_dtl(self):
        schema = DTD({"r": "text"}, start={"r"})
        # Selects the text child twice: copying.
        copier = DTLTransducer(
            {"q0", "q"},
            [("q0", "r", ("r", [Call("q", "down"), Call("q", "down")]))],
            {"q"},
            "q0",
        )
        assert copier(parse_tree('r("v")')) == parse_tree('r("v" "v")')
        assert is_copying(copier, schema)
        assert not is_rearranging(copier, schema)
        assert not is_text_preserving(copier, schema)
        witness = counter_example(copier, schema)
        assert witness is not None

    def test_counter_example_none_for_safe(self):
        assert counter_example(example42_transducer(), example23_dtd()) is None

    def test_maximal_safe_subschema_via_facade(self):
        schema = DTD({"r": "a? b?", "a": "text", "b": "text"}, start={"r"})
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
        safe = maximal_safe_subschema(swapper, schema)
        assert safe.accepts(parse_tree('r(a("x"))'))
        assert safe.accepts(parse_tree('r(b("y"))'))
        assert not safe.accepts(parse_tree('r(a("x") b("y"))'))

    def test_type_errors(self):
        with pytest.raises(TypeError):
            is_text_preserving(object(), example23_dtd())
        with pytest.raises(TypeError):
            is_text_preserving(example42_transducer(), object())

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_obs_exports_resolve(self):
        from repro import obs

        for name in obs.__all__:
            assert getattr(obs, name, None) is not None, name

    def test_docstring_example(self):
        schema = DTD({"note": "body", "body": "text"}, start={"note"})
        keep_body = TopDownTransducer(
            states={"q0", "q"},
            rules={
                ("q0", "note"): "note(q)",
                ("q", "body"): "q",
                ("q", "text"): "text",
            },
            initial="q0",
        )
        assert is_text_preserving(keep_body, schema)
