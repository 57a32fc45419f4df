"""Dataflow static analysis over the transducer rule graph.

A fixpoint pass manager (:mod:`.framework`) runs five monotone lattice
passes (:mod:`.passes`) over the rule graph of a
:class:`~repro.core.topdown.TopDownTransducer` under an input-schema
NTA:

1. ``reachability`` — which ``(state, schema state)`` configurations
   occur on valid documents (the Lemma 4.8 product);
2. ``copy-degree`` — how often each rule can duplicate a text-carrying
   subtree (0 / 1 / omega);
3. ``label-flow`` — which output labels each state can emit, and the
   exact set of emittable labels;
4. ``text-flow`` — rule sites where two text-carrying branches meet
   (order inversion / duplication sites);
5. ``dead-rules`` — never-firing rules, silent states, vacuous rules.

The resulting :class:`DataflowSummary` powers the TP5xx lint family
(:mod:`repro.lint.rules_flow`) and serves as a *sound pre-filter* for
the expensive decision procedures: ``copy_free``/``order_safe`` prove
text preservation without the Theorem 4.11 product automata, and the
exact ``output_labels`` set can decide the §6 typecheck before its
inverse-type construction.  Pre-filters never change verdicts — see
:func:`prefilter_disabled` and the soundness note in DESIGN.md.
"""

from .config import (
    NO_PREFILTER_ENV,
    prefilter_disabled,
    prefilter_enabled,
)
from .framework import (
    DataflowSummary,
    PassSpec,
    PassStats,
    Rule,
    RuleGraph,
    SummaryBuilder,
    Worklist,
    analyze,
    clear_cache,
    dependency_closure,
    log_skip,
    pass_names,
    resolve_prefilter,
    run_passes,
)
from .passes import OMEGA

__all__ = [
    "DataflowSummary",
    "PassSpec",
    "PassStats",
    "Rule",
    "RuleGraph",
    "SummaryBuilder",
    "Worklist",
    "OMEGA",
    "analyze",
    "clear_cache",
    "dependency_closure",
    "log_skip",
    "pass_names",
    "resolve_prefilter",
    "run_passes",
    "prefilter_enabled",
    "prefilter_disabled",
    "NO_PREFILTER_ENV",
]
