"""The five monotone passes over the transducer rule graph.

Each pass is a :class:`~.framework.PassSpec` whose driver runs a
chaotic iteration on the shared :class:`~.framework.Worklist` engine
(or a single linear scan when the lattice is trivial) and writes its
facts into the :class:`~.framework.SummaryBuilder`.  Registration
order is pipeline order:

``reachability`` → ``copy-degree`` → ``label-flow`` → ``text-flow``
→ ``dead-rules``

Soundness directions (see DESIGN.md):

* *reachability* is **exact** on valid documents — it is the Lemma 4.8
  configuration product, the same computation the lint engine's
  TP102/TP104/TP105 rules are built on;
* *copy-degree*'s ``text_productive`` set and *label-flow*'s ``emits``
  map **over-approximate** capability (a state in the set may still
  never produce text/labels below a *particular* rule), so their
  *empty/low* verdicts — ``copy_free``, ``order_safe``, silence — are
  the trustworthy direction: they mean *definitely* safe;
* ``output_labels`` is **exact**: every label in it is emitted on some
  valid document (any realizable rule fires on one, and its rhs
  ``OutputNode`` labels are emitted unconditionally when it does), and
  every emittable label occurs on some realizable rule's rhs.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...automata.nta import TEXT
from ...core.topdown import RuleHedge, _rhs_labels, _rhs_states
from .framework import (
    PassSpec,
    PassStats,
    Rule,
    RuleGraph,
    SchemaState,
    SummaryBuilder,
    Worklist,
    register_pass,
)

__all__ = [
    "REACHABILITY",
    "COPY_DEGREE",
    "LABEL_FLOW",
    "TEXT_FLOW",
    "DEAD_RULES",
]

#: Copy degrees saturate here: 2 means "omega" (two or more).
OMEGA = 2


# ---------------------------------------------------------------------------
# Pass 1: reachability/productivity under the input schema
# ---------------------------------------------------------------------------


def _run_reachability(graph: RuleGraph, builder: SummaryBuilder) -> PassStats:
    """The Lemma 4.8 configuration product: explore all pairs
    ``(transducer state, schema state)`` reachable on valid documents
    and classify every ``(state, label)`` event as realizable (a rule
    fires), uncovered (no rule: implicit deletion), or a text drop (no
    ``text`` rule)."""
    transducer, nta = graph.transducer, graph.nta
    labels_of = graph.labels_of()
    start: Tuple[str, SchemaState] = (transducer.initial, nta.initial)
    builder.configs.add(start)
    worklist: Worklist[Tuple[str, SchemaState]] = Worklist([start])
    while worklist:
        state, schema_state = worklist.pop()
        for label in labels_of.get(schema_state, ()):
            if label == TEXT:
                if state in transducer.text_states:
                    builder.realizable.add((state, TEXT))
                else:
                    builder.text_drops.setdefault(state, schema_state)
                continue
            if (state, label) not in transducer.rules:
                builder.uncovered.setdefault((state, label), schema_state)
                continue
            builder.realizable.add((state, label))
            children = nta.useful_child_states(schema_state, label)
            for target in set(transducer.rhs_frontier_states(state, label)):
                for child in children:
                    config = (target, child)
                    if config not in builder.configs:
                        builder.configs.add(config)
                        worklist.push(config)
    # Sorted so the frontier map (and everything the later passes build
    # from it) has hash-seed-independent order — the pass iteration
    # stats are part of the exact-counter bench comparisons.
    for state, label in sorted(builder.realizable):
        if label != TEXT:
            builder.frontiers[(state, label)] = transducer.rhs_frontier_states(
                state, label
            )
    builder.schema_reachable_states = {state for state, _ in builder.configs}
    builder.unreachable_under_schema = (
        set(transducer.reachable_states()) - builder.schema_reachable_states
    )
    builder.uncovered_root_labels = {
        label
        for label in labels_of.get(nta.initial, ())
        if label != TEXT and (transducer.initial, label) not in transducer.rules
    }
    facts = (
        len(builder.realizable)
        + len(builder.uncovered)
        + len(builder.text_drops)
        + len(builder.unreachable_under_schema)
    )
    return PassStats(
        name="reachability",
        iterations=worklist.pops,
        visited=len(builder.configs),
        facts=facts,
    )


REACHABILITY = register_pass(
    PassSpec(
        name="reachability",
        requires=(),
        run=_run_reachability,
        description="configs (state x schema state) reachable on valid documents",
    )
)


# ---------------------------------------------------------------------------
# Pass 2: copy-degree (0 / 1 / omega)
# ---------------------------------------------------------------------------


def _run_copy_degree(graph: RuleGraph, builder: SummaryBuilder) -> PassStats:
    """Backward least fixpoint for ``text_productive`` (states that can
    route an input text value to the output), then the per-rule count
    of text-productive frontier positions, saturated at :data:`OMEGA`.

    ``copy_free`` (degree <= 1 on every realizable rule) implies the
    transducer is neither copying (Lemma 4.5) nor rearranging
    (Lemma 4.6): with at most one text-carrying branch per rule, two
    sibling path runs can never both reach text."""
    transducer = graph.transducer
    productive = builder.text_productive
    mentions = builder.mentions()
    worklist: Worklist[str] = Worklist()
    for state, label in sorted(builder.realizable):
        if label == TEXT and state not in productive:
            productive.add(state)
            worklist.push(state)
    visited: Set[str] = set(productive)
    while worklist:
        state = worklist.pop()
        for rule in mentions.get(state, ()):
            source = rule[0]
            visited.add(source)
            if source not in productive:
                productive.add(source)
                worklist.push(source)
    max_degree = 0
    for rule, frontier in builder.frontiers.items():
        degree = sum(1 for state in frontier if state in productive)
        degree = min(degree, OMEGA)
        builder.copy_degree[rule] = degree
        max_degree = max(max_degree, degree)
        if degree >= OMEGA:
            counts: Dict[str, int] = {}
            for state in frontier:
                if state in productive:
                    counts[state] = counts.get(state, 0) + 1
            doubled = sorted(
                (state for state, count in counts.items() if count >= 2),
                key=lambda state: (-counts[state], state),
            )
            if doubled:
                builder.amplifying_rules[rule] = (doubled[0], counts[doubled[0]])
    # Text rules have copy degree exactly 1 (they emit the value once),
    # so they never raise the maximum.
    builder.max_copy_degree = max_degree
    builder.copy_free = max_degree <= 1
    return PassStats(
        name="copy-degree",
        iterations=worklist.pops,
        visited=len(visited),
        facts=len(productive) + len(builder.copy_degree),
    )


COPY_DEGREE = register_pass(
    PassSpec(
        name="copy-degree",
        requires=("reachability",),
        run=_run_copy_degree,
        description="text-productive states and per-rule copy degree (0/1/omega)",
    )
)


# ---------------------------------------------------------------------------
# Pass 3: output label-flow
# ---------------------------------------------------------------------------


def _run_label_flow(graph: RuleGraph, builder: SummaryBuilder) -> PassStats:
    """Forward union fixpoint: which output labels can each state's
    translation ever contain, considering only realizable rules."""
    transducer = graph.transducer
    mentions = builder.mentions()
    emits: Dict[str, Set[str]] = {}
    worklist: Worklist[str] = Worklist()
    for rule in builder.frontiers:
        rhs: RuleHedge = transducer.rules[rule]
        labels = frozenset(_rhs_labels(rhs))
        builder.rule_output_labels[rule] = labels
        if labels:
            bucket = emits.setdefault(rule[0], set())
            if labels - bucket:
                bucket.update(labels)
                worklist.push(rule[0])
    visited: Set[str] = set(emits)
    while worklist:
        state = worklist.pop()
        source_labels = emits[state]
        for rule in mentions.get(state, ()):
            source = rule[0]
            visited.add(source)
            bucket = emits.setdefault(source, set())
            if source_labels - bucket:
                bucket.update(source_labels)
                worklist.push(source)
    builder.emits = {
        state: frozenset(labels) for state, labels in emits.items() if labels
    }
    builder.output_labels = frozenset(
        label for labels in builder.rule_output_labels.values() for label in labels
    )
    return PassStats(
        name="label-flow",
        iterations=worklist.pops,
        visited=len(visited),
        facts=sum(len(labels) for labels in builder.emits.values()),
    )


LABEL_FLOW = register_pass(
    PassSpec(
        name="label-flow",
        requires=("reachability",),
        run=_run_label_flow,
        description="output labels each state can emit; exact emittable-label set",
    )
)


# ---------------------------------------------------------------------------
# Pass 4: text-flow provenance
# ---------------------------------------------------------------------------


def _run_text_flow(graph: RuleGraph, builder: SummaryBuilder) -> PassStats:
    """Inversion sites: realizable rules carrying two or more
    text-productive frontier positions.  Each such site lets two input
    text values reach the output under both relative orders (or twice),
    so ``order_safe`` (no sites) proves text order is preserved."""
    sites: List[Tuple[Rule, Tuple[str, str]]] = []
    for rule in sorted(builder.frontiers):
        frontier = builder.frontiers[rule]
        carrying = [state for state in frontier if state in builder.text_productive]
        if len(carrying) >= 2:
            sites.append((rule, (carrying[0], carrying[1])))
    builder.inversion_sites = tuple(sites)
    builder.order_safe = not sites
    return PassStats(
        name="text-flow",
        iterations=len(builder.frontiers),
        visited=len(builder.frontiers),
        facts=len(sites),
    )


TEXT_FLOW = register_pass(
    PassSpec(
        name="text-flow",
        requires=("copy-degree",),
        run=_run_text_flow,
        description="rule sites where two text-carrying branches meet",
    )
)


# ---------------------------------------------------------------------------
# Pass 5: dead/shadowed-rule detection
# ---------------------------------------------------------------------------


def _run_dead_rules(graph: RuleGraph, builder: SummaryBuilder) -> PassStats:
    """Rules that never fire on valid documents (``dead_rules``),
    states whose translation is provably always the empty hedge
    (``silent_states``), and realizable rules that only call silent
    states without emitting anything themselves (``vacuous_rules`` —
    deletions written as live rules)."""
    transducer = graph.transducer
    reachable = transducer.reachable_states()
    all_rules: List[Rule] = sorted(
        list(transducer.rules) + [(state, TEXT) for state in transducer.text_states]
    )
    builder.dead_rules = tuple(
        rule
        for rule in all_rules
        if rule[0] in reachable and rule not in builder.realizable
    )
    builder.silent_states = {
        state
        for state in transducer.states
        if state not in builder.text_productive and not builder.emits.get(state)
    }
    vacuous: List[Rule] = []
    for rule in sorted(builder.frontiers):
        rhs = transducer.rules[rule]
        if not rhs or builder.rule_output_labels.get(rule):
            continue
        called = set(_rhs_states(rhs))
        if called and called <= builder.silent_states:
            vacuous.append(rule)
    builder.vacuous_rules = tuple(vacuous)
    return PassStats(
        name="dead-rules",
        iterations=len(all_rules),
        visited=len(all_rules) + len(transducer.states),
        facts=len(builder.dead_rules)
        + len(builder.silent_states)
        + len(builder.vacuous_rules),
    )


DEAD_RULES = register_pass(
    PassSpec(
        name="dead-rules",
        requires=("reachability", "copy-degree", "label-flow"),
        run=_run_dead_rules,
        description="never-firing rules, silent states, vacuous rules",
    )
)
