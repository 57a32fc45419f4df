"""Tests for the dataflow framework (``repro.lint.dataflow``).

The fixpoints are checked against hand-derived fact sets on the shipped
corpus pairs; the pre-filters are cross-checked against the full
decision procedures (same verdicts, byte-identical lint findings); the
summary cache is pinned to its invalidation contract (a protect-set
change must reuse the summary, a rule edit must not).
"""

from pathlib import Path

import pytest

from repro import DTD, TopDownTransducer, obs
from repro.cli import load_schema, load_transducer
from repro.core.topdown_analysis import counter_example, is_copying, is_rearranging
from repro.lint import render_json, run_lint
from repro.lint.dataflow import (
    Worklist,
    analyze,
    clear_cache,
    dependency_closure,
    pass_names,
    prefilter_disabled,
    run_passes,
)
from repro.schema.dtd import dtd_to_nta

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "files" / "corpus"


@pytest.fixture
def recipes_nta():
    return dtd_to_nta(load_schema(str(CORPUS / "recipes.schema")))


def corpus_transducer(name):
    return load_transducer(str(CORPUS / ("%s.tdx" % name)))


class TestWorklist:
    def test_dedup_and_pops(self):
        wl = Worklist(["a", "b"])
        wl.push("a")  # already queued: deduplicated
        seen = []
        while wl:
            item = wl.pop()
            seen.append(item)
            if item == "b":
                wl.push("c")
        assert sorted(seen) == ["a", "b", "c"]
        assert wl.pops == 3

    def test_repush_after_pop_requeues(self):
        wl = Worklist(["a"])
        assert wl.pop() == "a"
        wl.push("a")
        assert wl.pop() == "a"
        assert wl.pops == 2


class TestRegistry:
    def test_pass_names_ordered(self):
        assert pass_names() == (
            "reachability",
            "copy-degree",
            "label-flow",
            "text-flow",
            "dead-rules",
        )

    def test_dependency_closure_pulls_requirements(self):
        closed = dependency_closure(("text-flow",))
        assert "reachability" in closed and "copy-degree" in closed
        # Closure preserves pipeline order.
        assert closed.index("reachability") < closed.index("copy-degree")

    def test_unknown_pass_rejected_with_valid_set(self):
        with pytest.raises(ValueError, match="reachability"):
            dependency_closure(("bogus",))


class TestHandCheckedFixpoints:
    def test_select_is_clean(self, recipes_nta):
        s = analyze(corpus_transducer("select"), recipes_nta)
        assert s.copy_free and s.order_safe
        assert s.max_copy_degree == 1
        assert sorted(s.text_productive) == ["q", "q0", "qsel"]
        assert sorted(s.output_labels) == [
            "br", "description", "ingredients", "instructions", "recipe", "recipes",
        ]
        assert not s.amplifying_rules and not s.inversion_sites
        assert not s.dead_rules and not s.vacuous_rules
        assert not s.unreachable_under_schema and not s.uncovered_root_labels

    def test_duplicate_amplifies_and_inverts(self, recipes_nta):
        s = analyze(corpus_transducer("duplicate"), recipes_nta)
        assert not s.copy_free and not s.order_safe
        assert s.max_copy_degree == 2
        assert dict(s.amplifying_rules) == {("q0", "recipe"): ("qsel", 2)}
        assert list(s.inversion_sites) == [(("q0", "recipe"), ("qsel", "qsel"))]

    def test_swap_comments_inverts_without_amplifying(self, recipes_nta):
        s = analyze(corpus_transducer("swap_comments"), recipes_nta)
        # Two *distinct* text-carrying siblings: an order hazard but no
        # single-state amplification.
        assert not s.order_safe and not s.amplifying_rules
        assert list(s.inversion_sites) == [(("qsel", "comments"), ("qpos", "qneg"))]
        assert sorted(s.text_productive) == ["q", "q0", "qneg", "qpos", "qsel"]

    def test_synthetic_dead_silent_vacuous(self):
        # qdeep is graph-reachable but its only entry rule reads 'doc'
        # where the schema puts 'item'; qz has no rules at all; the
        # (q, item) rule relabels into nothing but a silent state call;
        # root label 'alt' has no initial rule.
        schema = DTD(
            {"doc": "item*", "alt": "text", "item": "text"},
            start={"doc", "alt"},
        )
        transducer = TopDownTransducer(
            states={"q0", "q", "qz", "qdeep"},
            rules={
                ("q0", "doc"): "doc(q)",
                ("q", "item"): "qz",
                ("q", "doc"): "doc(qdeep)",
                ("qdeep", "item"): "item(qdeep)",
            },
            initial="q0",
        )
        s = analyze(transducer, dtd_to_nta(schema))
        assert sorted(s.unreachable_under_schema) == ["qdeep"]
        assert ("q", "doc") in s.dead_rules
        assert "qz" in s.silent_states and "q" in s.silent_states
        assert list(s.vacuous_rules) == [("q", "item")]
        assert sorted(s.uncovered_root_labels) == ["alt"]
        # No text states anywhere: trivially copy-free and order-safe.
        assert s.copy_free and s.order_safe and not s.text_productive


class TestPassSelection:
    def test_partial_run_marks_missing_passes(self, recipes_nta):
        s = run_passes(corpus_transducer("select"), recipes_nta, ("copy-degree",))
        assert s.has_pass("reachability") and s.has_pass("copy-degree")
        assert not s.has_pass("label-flow") and not s.has_pass("text-flow")
        assert s.copy_free  # the selected fixpoint still ran

    def test_reachability_always_forced(self, recipes_nta):
        s = run_passes(corpus_transducer("select"), recipes_nta, ("dead-rules",))
        assert s.has_pass("reachability")
        assert set(s.stats) == set(dependency_closure(("dead-rules",)))


class TestSoundness:
    """The pre-filters never change a verdict or a finding."""

    @pytest.mark.parametrize("name", ["select", "identity", "duplicate", "swap_comments"])
    def test_verdicts_identical_with_and_without_prefilter(self, name, recipes_nta):
        transducer = corpus_transducer(name)
        clear_cache()
        with prefilter_disabled():
            expected = (
                is_copying(transducer, recipes_nta),
                is_rearranging(transducer, recipes_nta),
                counter_example(transducer, recipes_nta) is None,
            )
        gated = (
            is_copying(transducer, recipes_nta),
            is_rearranging(transducer, recipes_nta),
            counter_example(transducer, recipes_nta) is None,
        )
        assert gated == expected

    @pytest.mark.parametrize("name", ["select", "duplicate", "swap_comments"])
    def test_lint_findings_byte_identical(self, name, recipes_nta):
        transducer = corpus_transducer(name)
        clear_cache()
        with prefilter_disabled():
            off = render_json(run_lint(transducer, recipes_nta))
        on = render_json(run_lint(transducer, recipes_nta))
        assert on == off


class TestSummaryCache:
    def test_same_objects_hit(self, recipes_nta):
        transducer = corpus_transducer("select")
        clear_cache()
        with obs.recording() as recorder:
            first = analyze(transducer, recipes_nta)
            second = analyze(transducer, recipes_nta)
        assert second is first
        assert recorder.counters["dataflow.cache.misses"] == 1
        assert recorder.counters["dataflow.cache.hits"] == 1

    def test_protect_change_reuses_summary(self, recipes_nta):
        """The summary depends only on (transducer, schema): re-linting
        with a different protect set must not recompute it."""
        transducer = corpus_transducer("select")
        clear_cache()
        with obs.recording() as recorder:
            run_lint(transducer, recipes_nta)
            run_lint(transducer, recipes_nta, protected_labels=("comment",))
        assert recorder.counters["dataflow.cache.misses"] == 1
        assert recorder.counters.get("dataflow.cache.hits", 0) >= 1

    def test_rule_edit_invalidates(self, recipes_nta):
        clear_cache()
        with obs.recording() as recorder:
            run_lint(corpus_transducer("select"), recipes_nta)
            # A freshly loaded transducer is a different object — the
            # identity-keyed cache must treat it as edited.
            run_lint(corpus_transducer("select"), recipes_nta)
        assert recorder.counters["dataflow.cache.misses"] == 2

    def test_selected_pass_runs_bypass_cache(self, recipes_nta):
        transducer = corpus_transducer("select")
        clear_cache()
        with obs.recording() as recorder:
            analyze(transducer, recipes_nta)
            analyze(transducer, recipes_nta, passes=("reachability",))
        assert "dataflow.cache.hits" not in recorder.counters


class TestCorpusGate:
    def test_proven_safe_pair_runs_inline(self):
        from repro.corpus.manifest import JobSpec
        from repro.corpus.runner import _inline_if_proven_safe

        spec = JobSpec(
            transducer_path=str(CORPUS / "select.tdx"),
            schema_path=str(CORPUS / "recipes.schema"),
            protect=(),
            transducer_name="select.tdx",
            schema_name="recipes.schema",
        )
        result = _inline_if_proven_safe(spec, None)
        assert result is not None and result.verdict == "safe"

    def test_unproven_and_protected_pairs_go_to_workers(self):
        from repro.corpus.manifest import JobSpec
        from repro.corpus.runner import _inline_if_proven_safe

        unproven = JobSpec(
            transducer_path=str(CORPUS / "duplicate.tdx"),
            schema_path=str(CORPUS / "recipes.schema"),
            protect=(),
            transducer_name="duplicate.tdx",
            schema_name="recipes.schema",
        )
        assert _inline_if_proven_safe(unproven, None) is None
        protected = JobSpec(
            transducer_path=str(CORPUS / "select.tdx"),
            schema_path=str(CORPUS / "recipes.schema"),
            protect=("comment",),
            transducer_name="select.tdx",
            schema_name="recipes.schema",
        )
        assert _inline_if_proven_safe(protected, None) is None

    def test_broken_pair_keeps_error_isolation(self):
        from repro.corpus.manifest import JobSpec
        from repro.corpus.runner import _inline_if_proven_safe

        broken = JobSpec(
            transducer_path=str(CORPUS / "broken.tdx"),
            schema_path=str(CORPUS / "recipes.schema"),
            protect=(),
            transducer_name="broken.tdx",
            schema_name="recipes.schema",
        )
        assert _inline_if_proven_safe(broken, None) is None
