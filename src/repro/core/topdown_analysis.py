"""Deciding text-preservation for top-down transducers (paper, §4.2-4.3).

The pipeline follows the paper exactly:

* :func:`path_automaton` — Lemma 4.8(1): an NFA for the text-path
  language of ``L(N)`` (all ``anc-str`` strings of text nodes in trees
  of the schema), built in polynomial time.
* :func:`transducer_path_automaton` — Lemma 4.8(2): an NFA for the text
  paths on which the transducer has a path run.
* :func:`copying_nfa` — the product automaton ``M`` of Lemma 4.9:
  simulates the schema path automaton and two copies of the transducer
  path automaton, accepting iff a text path witnesses copying
  (two distinct path runs, or a doubling rule on a path run).
* :func:`copying_nta` / :func:`rearranging_nta` — NTAs accepting the
  trees on which ``T`` copies / rearranges (the automaton ``M`` of
  Lemma 4.10 and its copying analogue).  Their intersections with the
  schema give PTIME decisions *and* concrete counter-example trees,
  and their union is the regular language of counter-examples that
  Section 7 builds on.
* :func:`is_text_preserving` — Theorem 4.11.

Everything here is polynomial in ``|T| + |N|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import obs
from ..automata.nta import NTA, TEXT, intersect_nta, union_nta
from ..strings.nfa import NFA
from ..trees.substitution import make_value_unique
from ..trees.tree import Tree
from .topdown import TopDownTransducer

if TYPE_CHECKING:  # pragma: no cover
    from ..lint.dataflow import DataflowSummary

__all__ = [
    "path_automaton",
    "transducer_path_automaton",
    "copying_nfa",
    "copying_nta",
    "rearranging_nta",
    "counter_example_nta",
    "is_copying",
    "is_rearranging",
    "is_text_preserving",
    "copying_witness_path",
    "counter_example",
    "CopyingReport",
    "copying_report",
    "copying_counter_example",
    "RearrangingFinding",
    "rearranging_findings",
]

State = Hashable

#: The accepting sink of path automata (reached on reading ``text``).
_ACC = ("acc",)


def _resolve_prefilter(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"]
) -> Optional["DataflowSummary"]:
    """Resolve a ``prefilter=`` argument to a dataflow summary or
    ``None`` (pre-filtering off).  Imported lazily: the dataflow
    package depends on this module."""
    from ..lint.dataflow import resolve_prefilter

    return resolve_prefilter(transducer, nta, prefilter)


def _log_skip(procedure: str, pass_name: str, **details: object) -> None:
    from ..lint.dataflow import log_skip

    log_skip(procedure, pass_name, **details)


def _credit_states(
    site: str,
    states: Iterable[State],
    transitions: Iterable[Tuple[Any, str, State]],
    owner: int,
    roles: Dict[State, str],
) -> None:
    """Count ``ptime.product_states`` for a finished automaton, one per
    state, with attribution: the seed and sink states go to their
    parenthesized ``roles``, every other state to the least transducer
    rule ``(source[owner], label)`` among the ``(source, label, target)``
    transitions entering it (``source[owner]`` is the transducer state
    the source simulates).  The split is a function of the automaton
    alone, not of the order the construction explored it, and it sums
    to the flat total."""
    least: Dict[State, Tuple[str, str]] = {}
    for source, symbol, target in transitions:
        rule = (source[owner], symbol)
        known = least.get(target)
        if known is None or rule < known:
            least[target] = rule
    credit: Dict[str, int] = {}
    for state in states:
        role = roles.get(state) or "%s/%s" % least[state]
        credit[role] = credit.get(role, 0) + 1
    for role in sorted(credit):
        obs.add("ptime.product_states", credit[role], rule=role, site=site)


def _credit_nta_states(site: str, nta: NTA, owner: int) -> None:
    """:func:`_credit_states` for a witness NTA, whose transition
    ``(source, label)`` enters the states of its horizontal language."""
    transitions = (
        (source, symbol, child)
        for (source, symbol), horizontal in nta.delta.items()
        if source != _D
        for child in horizontal.alphabet
    )
    _credit_states(site, nta.states, transitions, owner, {nta.initial: "(seed)", _D: "(sink)"})


def path_automaton(nta: NTA) -> NFA:
    """Lemma 4.8(1): an NFA accepting the text-path language of ``L(nta)``.

    Words have the shape ``a1 ... an text``; the NFA's states are the
    NTA's states plus an accepting sink, and reading a label moves to a
    possible child state within a completable accepted tree.
    """
    with obs.span("ptime.path_automaton") as sp:
        transitions: List[Tuple[State, str, State]] = []
        inhabited = nta.inhabited_states()
        if nta.initial not in inhabited:
            return NFA(
                {nta.initial, _ACC}, set(nta.alphabet) | {TEXT}, [], nta.initial, {_ACC}
            )
        for state, symbol in nta.delta:
            if state not in inhabited:
                continue
            if symbol == TEXT:
                if nta.allows_empty(state, TEXT):
                    transitions.append((state, TEXT, _ACC))
                continue
            for child in nta.useful_child_states(state, symbol):
                transitions.append((state, symbol, child))
        states = set(inhabited) | {_ACC, nta.initial}
        sp.set("states", len(states))
        sp.set("transitions", len(transitions))
        obs.add("ptime.path_automaton_states", len(states))
        return NFA(states, set(nta.alphabet) | {TEXT}, transitions, nta.initial, {_ACC})


def transducer_path_automaton(transducer: TopDownTransducer) -> NFA:
    """Lemma 4.8(2): an NFA accepting the text paths on which the
    transducer has a path run (ending with a value-copying text rule)."""
    if not isinstance(transducer, TopDownTransducer):
        raise TypeError(
            "this is the Section 4 (top-down) pipeline; for DTL transducers "
            "use repro.is_text_preserving or repro.core.dtl_analysis"
        )
    with obs.span("ptime.transducer_path_automaton") as sp:
        transitions: List[Tuple[State, str, State]] = []
        for (state, symbol), _rhs in transducer.rules.items():
            for target in set(transducer.rhs_frontier_states(state, symbol)):
                transitions.append((state, symbol, target))
        for state in transducer.text_states:
            transitions.append((state, TEXT, _ACC))
        states = set(transducer.states) | {_ACC}
        alphabet = set(transducer.alphabet) | {TEXT}
        sp.set("states", len(states))
        sp.set("transitions", len(transitions))
        obs.add("ptime.path_automaton_states", len(states))
        return NFA(states, alphabet, transitions, transducer.initial, {_ACC})


# ---------------------------------------------------------------------------
# Copying (Lemmas 4.5 and 4.9)
# ---------------------------------------------------------------------------


def _pair_steps(
    transducer: TopDownTransducer, q1: str, q2: str, symbol: str, flag: int
) -> Iterable[Tuple[str, str, int]]:
    """Successor state pairs for the two simulated path runs.

    ``flag`` is 1 once the runs have diverged or a doubling rule was
    used; the invariant ``flag == 0  =>  q1 == q2`` is maintained.
    """
    targets1 = set(transducer.rhs_frontier_states(q1, symbol))
    targets2 = set(transducer.rhs_frontier_states(q2, symbol))
    for t1 in targets1:
        for t2 in targets2:
            if flag == 1:
                yield (t1, t2, 1)
            elif t1 != t2:
                yield (t1, t2, 1)  # the runs diverge here: two distinct runs
            else:
                doubled = transducer.rhs_state_multiplicity(q1, symbol, t1) >= 2
                yield (t1, t2, 1 if doubled else 0)


def copying_nfa(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> NFA:
    """Lemma 4.9's automaton ``M``: accepts the text paths of ``L(nta)``
    witnessing that the transducer copies.

    ``M`` runs the schema path automaton and two copies of the
    transducer path automaton in lockstep; it accepts when the two runs
    end in value-copying rules after having diverged, or after some
    rule on the shared prefix offered the next state twice.

    When a dataflow summary with the copy-degree pass is available (see
    ``prefilter``), pair steps into non-text-productive states are
    pruned.  This is exact: acceptance needs both runs to end in
    value-copying text rules along schema-realizable events, which is
    precisely text-productivity, and that set is backward-closed — so
    the pruned region is never on an accepting path and even the BFS
    shortest witness word is unchanged.
    """
    summary = _resolve_prefilter(transducer, nta, prefilter)
    productive = (
        summary.text_productive
        if summary is not None and summary.has_pass("copy-degree")
        else None
    )
    with obs.span("ptime.copying_product") as sp:
        schema = path_automaton(nta)
        alphabet = set(nta.alphabet) | {TEXT}
        initial = (schema.initial, transducer.initial, transducer.initial, 0)
        states: Set[State] = {initial, _ACC}
        transitions: List[Tuple[State, str, State]] = []
        stack: List[Tuple[State, str, str, int]] = [initial]
        seen: Set[State] = {initial}
        pruned = 0
        while stack:
            current = stack.pop()
            s_n, q1, q2, flag = current
            for symbol in schema.symbols_from(s_n):
                if symbol == TEXT:
                    if flag == 1 and q1 in transducer.text_states and q2 in transducer.text_states:
                        transitions.append((current, TEXT, _ACC))
                    continue
                schema_targets = schema.step(s_n, symbol)
                if not schema_targets:
                    continue
                for t1, t2, new_flag in _pair_steps(transducer, q1, q2, symbol, flag):
                    if productive is not None and (
                        t1 not in productive or t2 not in productive
                    ):
                        pruned += 1
                        continue
                    for s_target in schema_targets:
                        nxt = (s_target, t1, t2, new_flag)
                        transitions.append((current, symbol, nxt))
                        if nxt not in seen:
                            seen.add(nxt)
                            states.add(nxt)
                            stack.append(nxt)
        sp.set("states", len(states))
        sp.set("transitions", len(transitions))
        if obs.enabled():
            # A transition out of (s, q1, q2, flag) on `a` runs rule q1/a.
            _credit_states(
                "copying_nfa", states, transitions, 1, {initial: "(seed)", _ACC: "(accept)"}
            )
        obs.add("ptime.product_transitions", len(transitions))
        if productive is not None:
            sp.set("pruned", pruned)
            obs.add("ptime.product_pruned", pruned)
        return NFA(states, alphabet, transitions, initial, {_ACC})


def is_copying(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> bool:
    """Lemma 4.9: PTIME test whether the transducer copies over ``L(nta)``."""
    summary = _resolve_prefilter(transducer, nta, prefilter)
    with obs.span("ptime.copying") as sp:
        if summary is not None and summary.copy_free:
            # Every realizable rule has at most one text-productive
            # frontier position, so neither Lemma 4.5 condition
            # (divergence, doubling) can reach two text leaves.
            sp.set("verdict", False)
            _log_skip("is_copying", "copy-degree", max_copy_degree=summary.max_copy_degree)
            obs.info("ptime.copying", "copying decided", copying=False, product_states=0)
            return False
        product = copying_nfa(transducer, nta, prefilter=summary)
        with obs.span("ptime.emptiness") as sp_empty:
            sp_empty.set("automaton", "copying_nfa")
            empty = product.is_empty()
        sp.set("verdict", not empty)
        obs.info("ptime.copying", "copying decided",
                 copying=not empty, product_states=len(product.states))
        return not empty


def copying_witness_path(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> Optional[Tuple[str, ...]]:
    """A text path witnessing copying (labels ending in ``text``), or
    ``None`` when the transducer does not copy over ``L(nta)``."""
    summary = _resolve_prefilter(transducer, nta, prefilter)
    if summary is not None and summary.copy_free:
        _log_skip("copying_witness_path", "copy-degree")
        return None
    word = copying_nfa(transducer, nta, prefilter=summary).shortest_word()
    if word is None:
        return None
    return tuple(str(symbol) for symbol in word)


# ---------------------------------------------------------------------------
# Counter-example tree languages (Lemma 4.10 and the copying analogue)
# ---------------------------------------------------------------------------

_D = ("d",)  # "don't care" state of the witness NTAs


def _pattern_nfa(states_before_after: Sequence[State], wildcard: State) -> NFA:
    """NFA for ``wildcard* s1 wildcard* s2 ... wildcard*`` — the shape of
    all horizontal languages in the witness automata."""
    n = len(states_before_after)
    transitions: List[Tuple[State, State, State]] = []
    for i in range(n + 1):
        transitions.append((i, wildcard, i))
    for i, symbol in enumerate(states_before_after):
        transitions.append((i, symbol, i + 1))
    return NFA(range(n + 1), set(states_before_after) | {wildcard}, transitions, 0, {n})


def _union_patterns(patterns: List[NFA], wildcard: State) -> Optional[NFA]:
    if not patterns:
        return None
    from ..strings.nfa import union_nfa

    result = patterns[0]
    for nfa in patterns[1:]:
        result = union_nfa(result, nfa)
    return result


def copying_nta(
    transducer: TopDownTransducer, alphabet: Optional[Iterable[str]] = None
) -> NTA:
    """An NTA accepting exactly the trees on which the transducer copies
    (operational condition of Lemma 4.5).

    States: ``(q1, q2, flag)`` pairs simulating two path runs down the
    marked path (flag 1 once distinct or doubled), plus a wildcard
    state for the rest of the tree.  Polynomial in ``|T|``.

    ``alphabet`` is the label universe of the trees considered (pass the
    schema's alphabet union the transducer's when intersecting).
    """
    alphabet = set(alphabet) if alphabet is not None else set(transducer.alphabet)
    alphabet |= set(transducer.alphabet)
    pair_states: Set[State] = set()
    delta: Dict[Tuple[State, str], NFA] = {}

    eps_nfa = NFA([0], [], [], 0, [0])
    delta[(_D, TEXT)] = eps_nfa
    for symbol in alphabet:
        delta[(_D, symbol)] = _pattern_nfa([], _D)

    initial = (transducer.initial, transducer.initial, 0)
    work: List[Tuple[str, str, int]] = [initial]
    seen: Set[Tuple[str, str, int]] = {initial}
    while work:
        q1, q2, flag = work.pop()
        pair_states.add((q1, q2, flag))
        if flag == 1 and q1 in transducer.text_states and q2 in transducer.text_states:
            delta[((q1, q2, flag), TEXT)] = eps_nfa
        for symbol in alphabet:
            patterns: List[NFA] = []
            for t1, t2, new_flag in _pair_steps(transducer, q1, q2, symbol, flag):
                target = (t1, t2, new_flag)
                patterns.append(_pattern_nfa([target], _D))
                if target not in seen:
                    seen.add(target)
                    work.append(target)
            combined = _union_patterns(patterns, _D)
            if combined is not None:
                delta[((q1, q2, flag), symbol)] = combined
    result = NTA(pair_states | {_D, initial}, alphabet, delta, initial)
    if obs.enabled():
        # A transition out of (q1, q2, flag) runs rule q1/a.
        _credit_nta_states("copying_nta", result, 0)
    return result


def rearranging_nta(
    transducer: TopDownTransducer,
    alphabet: Optional[Iterable[str]] = None,
    violation_filter: Optional[Callable[[str, str, str, str], bool]] = None,
) -> NTA:
    """Lemma 4.10's automaton ``M``: an NTA accepting exactly the trees
    on which the transducer rearranges (condition of Lemma 4.6).

    State shapes (all polynomially many):

    * ``("s", q)`` — on the shared path, runs still agree in state ``q``;
    * ``("p", q1, q2)`` — on the shared path after the order violation
      (the run that will reach the *right* leaf ``v2`` got an earlier
      output slot than the run reaching the *left* leaf ``v1``);
    * ``("f", q)`` — inside the split subtree: some text path run from
      ``q`` must end at a text leaf below;
    * the wildcard ``d``.

    ``violation_filter(state, symbol, q1_next, q2_next)`` — when given —
    restricts *where* the order violation may be introduced: only rules
    ``(state, symbol)`` whose frontier offers ``q2_next`` strictly
    before ``q1_next`` and for which the filter returns ``True`` may
    start a violation.  This localizes rearranging to individual rules
    (used by the :mod:`repro.lint` diagnostics engine).
    """
    with obs.span("ptime.rearranging_nta") as sp:
        alphabet = set(alphabet) if alphabet is not None else set(transducer.alphabet)
        alphabet |= set(transducer.alphabet)
        delta: Dict[Tuple[State, str], NFA] = {}
        eps_nfa = NFA([0], [], [], 0, [0])
        delta[(_D, TEXT)] = eps_nfa
        for symbol in alphabet:
            delta[(_D, symbol)] = _pattern_nfa([], _D)

        # The s-, p- and f-states needed so far (by transducer states).
        s_needed: Set[str] = {transducer.initial}
        p_needed: Set[Tuple[str, str]] = set()
        f_needed: Set[str] = set()

        def f_state(q: str) -> State:
            f_needed.add(q)
            return ("f", q)

        def p_state(q1: str, q2: str) -> State:
            p_needed.add((q1, q2))
            return ("p", q1, q2)

        def s_state(q: str) -> State:
            s_needed.add(q)
            return ("s", q)

        # Build rules lazily until no new states appear.
        done_s: Set[str] = set()
        done_p: Set[Tuple[str, str]] = set()
        done_f: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for q in list(s_needed - done_s):
                done_s.add(q)
                changed = True
                for symbol in alphabet:
                    frontier = transducer.rhs_frontier_states(q, symbol)
                    if not frontier:
                        continue
                    patterns: List[NFA] = []
                    for q_next in set(frontier):
                        patterns.append(_pattern_nfa([s_state(q_next)], _D))
                    # Order violation: q2' strictly before q1' among the
                    # frontier state occurrences (as a subsequence q2'.q1').
                    # Two sub-cases: the violation happens strictly above
                    # the lca (continue together in a p-state), or at the
                    # lca itself (split immediately: the run for the *left*
                    # leaf v1 continues in an earlier child than the run
                    # for v2).
                    seen_pairs = set()
                    for j1 in range(len(frontier)):
                        for j2 in range(j1 + 1, len(frontier)):
                            q2_next, q1_next = frontier[j1], frontier[j2]
                            if (q1_next, q2_next) in seen_pairs:
                                continue
                            seen_pairs.add((q1_next, q2_next))
                            if violation_filter is not None and not violation_filter(
                                q, symbol, q1_next, q2_next
                            ):
                                continue
                            patterns.append(_pattern_nfa([p_state(q1_next, q2_next)], _D))
                            patterns.append(
                                _pattern_nfa([f_state(q1_next), f_state(q2_next)], _D)
                            )
                    delta[(("s", q), symbol)] = _union_patterns(patterns, _D)
            for (q1, q2) in list(p_needed - done_p):
                done_p.add((q1, q2))
                changed = True
                for symbol in alphabet:
                    targets1 = set(transducer.rhs_frontier_states(q1, symbol))
                    targets2 = set(transducer.rhs_frontier_states(q2, symbol))
                    patterns = []
                    for t1 in targets1:
                        for t2 in targets2:
                            # continue together toward the lca
                            patterns.append(_pattern_nfa([p_state(t1, t2)], _D))
                            # or split here: v1 into an earlier child than v2
                            patterns.append(_pattern_nfa([f_state(t1), f_state(t2)], _D))
                    combined = _union_patterns(patterns, _D)
                    if combined is not None:
                        delta[(("p", q1, q2), symbol)] = combined
            for q in list(f_needed - done_f):
                done_f.add(q)
                changed = True
                if q in transducer.text_states:
                    delta[(("f", q), TEXT)] = eps_nfa
                for symbol in alphabet:
                    patterns = []
                    for q_next in set(transducer.rhs_frontier_states(q, symbol)):
                        patterns.append(_pattern_nfa([f_state(q_next)], _D))
                    combined = _union_patterns(patterns, _D)
                    if combined is not None:
                        delta[(("f", q), symbol)] = combined

        states: Set[State] = {_D}
        states |= {("s", q) for q in done_s}
        states |= {("p", q1, q2) for (q1, q2) in done_p}
        states |= {("f", q) for q in done_f}
        result = NTA(states, alphabet, delta, ("s", transducer.initial))
        sp.set("states", len(result.states))
        sp.set("rules", len(result.delta))
        if obs.enabled():
            # A transition out of ("s", q), ("p", q, q2) or ("f", q) runs q/a.
            _credit_nta_states("rearranging_nta", result, 1)
        return result


def _productive_site_filter(
    summary: "DataflowSummary",
) -> Optional[Callable[[str, str, str, str], bool]]:
    """A ``violation_filter`` admitting only sites the dataflow summary
    cannot rule out: the rule fires on some valid document and both
    branch states can route text to the output.  Exact for emptiness
    checks against the schema: a product witness makes the site's rule
    fire and both branches reach text on a valid document, so any
    witnessed site passes the filter."""
    if not (summary.has_pass("reachability") and summary.has_pass("copy-degree")):
        return None
    realizable = summary.realizable
    productive = summary.text_productive

    def allowed(state: str, symbol: str, q1_next: str, q2_next: str) -> bool:
        return (
            (state, symbol) in realizable
            and q1_next in productive
            and q2_next in productive
        )

    return allowed


def is_rearranging(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> bool:
    """Lemma 4.10: PTIME test whether the transducer rearranges over
    ``L(nta)``."""
    summary = _resolve_prefilter(transducer, nta, prefilter)
    with obs.span("ptime.rearranging") as sp:
        if summary is not None and summary.has_pass("text-flow") and summary.order_safe:
            # No realizable rule carries two text-productive frontier
            # positions, so no Lemma 4.6 order violation can ever put
            # text into the output through two branches.
            sp.set("verdict", False)
            _log_skip("is_rearranging", "text-flow")
            obs.info("ptime.rearranging", "rearranging decided",
                     rearranging=False, product_states=0)
            return False
        violation_filter = _productive_site_filter(summary) if summary is not None else None
        universe = set(nta.alphabet) | set(transducer.alphabet)
        witness_nta = rearranging_nta(transducer, universe, violation_filter)
        with obs.span("ptime.schema_product") as sp_product:
            product = intersect_nta(witness_nta, nta)
            sp_product.set("states", len(product.states))
        with obs.span("ptime.emptiness") as sp_empty:
            sp_empty.set("automaton", "rearranging_product")
            empty = product.is_empty()
        sp.set("verdict", not empty)
        obs.info("ptime.rearranging", "rearranging decided",
                 rearranging=not empty, product_states=len(product.states))
        return not empty


def counter_example_nta(transducer: TopDownTransducer, nta: NTA) -> NTA:
    """The regular language of counter-examples (Section 7): trees of
    ``L(nta)`` on which the transducer copies or rearranges — i.e., is
    not text-preserving (Theorem 3.3)."""
    with obs.span("ptime.counter_example_nta") as sp:
        universe = set(nta.alphabet) | set(transducer.alphabet)
        bad = union_nta(
            copying_nta(transducer, universe), rearranging_nta(transducer, universe)
        )
        product = intersect_nta(bad, nta)
        sp.set("states", len(product.states))
        return product


def is_text_preserving(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> bool:
    """Theorem 4.11: PTIME decision whether the (admissible) top-down
    transducer is text-preserving over ``L(nta)``."""
    summary = _resolve_prefilter(transducer, nta, prefilter)
    return not is_copying(transducer, nta, prefilter=summary) and not is_rearranging(
        transducer, nta, prefilter=summary
    )


def counter_example(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> Optional[Tree]:
    """A smallest value-unique tree of ``L(nta)`` on which the
    transducer is not text-preserving, or ``None`` when it is
    text-preserving.

    The witness is made value-unique, so
    ``text_values(T(t))`` is concretely not a subsequence of
    ``text_values(t)``.

    The pre-filter only ever skips the construction outright (when the
    summary proves text preservation, the answer is ``None``); it never
    alters the union NTA, so the chosen witness tree is byte-identical
    with pre-filtering off.
    """
    summary = _resolve_prefilter(transducer, nta, prefilter)
    if (
        summary is not None
        and summary.copy_free
        and summary.has_pass("text-flow")
        and summary.order_safe
    ):
        _log_skip("counter_example", "copy-degree+text-flow")
        return None
    witness = counter_example_nta(transducer, nta).witness()
    if witness is None:
        return None
    return make_value_unique(witness)


# ---------------------------------------------------------------------------
# Explainable verdicts (the witness internals behind the booleans)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CopyingReport:
    """Why the transducer copies over the schema (Lemma 4.5).

    Attributes
    ----------
    path:
        A shortest witness text path, ancestor labels ending ``text``.
    runs:
        The distinct path runs of the transducer on ``path`` (state
        sequences, one state longer than the label part of the path).
    rule:
        The offending rule ``(state, label)``: where two runs diverge
        (condition (1) of Lemma 4.5), or the doubling rule whose rhs
        mentions the successor state twice (condition (2)).
    kind:
        ``"divergence"`` or ``"doubling"``.
    witness:
        A smallest value-unique schema tree on which the transducer
        copies, or ``None`` when the schema language below the path is
        degenerate.
    """

    path: Tuple[str, ...]
    runs: Tuple[Tuple[str, ...], ...]
    rule: Tuple[str, str]
    kind: str
    witness: Optional[Tree]


def copying_counter_example(transducer: TopDownTransducer, nta: NTA) -> Optional[Tree]:
    """A smallest value-unique schema tree on which the transducer
    *copies* (not merely fails preservation), or ``None``."""
    universe = set(nta.alphabet) | set(transducer.alphabet)
    witness = intersect_nta(copying_nta(transducer, universe), nta).witness()
    if witness is None:
        return None
    return make_value_unique(witness)


def copying_report(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> Optional[CopyingReport]:
    """Localize copying: the witness path, its path runs, and the rule
    to blame — or ``None`` when the transducer does not copy over
    ``L(nta)``.

    With a pre-filter the report is byte-identical: a ``copy_free``
    summary proves the answer is ``None``, and in-product pruning
    (see :func:`copying_nfa`) leaves the shortest witness unchanged.
    """
    summary = _resolve_prefilter(transducer, nta, prefilter)
    if summary is not None and summary.copy_free:
        _log_skip("copying_report", "copy-degree")
        return None
    word = copying_nfa(transducer, nta, prefilter=summary).shortest_word()
    if word is None:
        return None
    path = tuple(str(symbol) for symbol in word)
    labels = path[:-1]
    runs = tuple(sorted(set(transducer.path_runs(labels))))
    rule: Optional[Tuple[str, str]] = None
    kind = "doubling"
    if len(runs) >= 2:
        # Condition (1): two distinct path runs.  Blame the rule at the
        # earliest divergence point over all run pairs.
        best: Optional[Tuple[int, Tuple[str, str]]] = None
        for i1 in range(len(runs)):
            for i2 in range(i1 + 1, len(runs)):
                r1, r2 = runs[i1], runs[i2]
                for i in range(1, len(r1)):
                    if r1[i] != r2[i]:
                        if best is None or i < best[0]:
                            best = (i, (r1[i - 1], labels[i - 1]))
                        break
        if best is not None:
            kind = "divergence"
            rule = best[1]
    if rule is None:
        # Condition (2): a doubling rule along some (single) run.
        for run in runs:
            for i in range(1, len(run)):
                if transducer.rhs_state_multiplicity(run[i - 1], labels[i - 1], run[i]) >= 2:
                    rule = (run[i - 1], labels[i - 1])
                    break
            if rule is not None:
                break
    assert rule is not None, "copying NFA accepted a path with no Lemma 4.5 evidence"
    return CopyingReport(
        path=path,
        runs=runs,
        rule=rule,
        kind=kind,
        witness=copying_counter_example(transducer, nta),
    )


@dataclass(frozen=True)
class RearrangingFinding:
    """One rule-level cause of rearranging (Lemma 4.6).

    ``rule``'s right-hand-side frontier offers ``pair[0]`` in an
    earlier output slot than ``pair[1]``, yet on some schema tree the
    run through ``pair[0]`` reaches a text leaf *to the right of* the
    leaf reached through ``pair[1]`` — so their values swap order in
    the output.  ``witness`` is a smallest value-unique schema tree
    exhibiting exactly this rule's violation.
    """

    rule: Tuple[str, str]
    pair: Tuple[str, str]
    witness: Tree


def rearranging_findings(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional["DataflowSummary"] = None
) -> Tuple[RearrangingFinding, ...]:
    """All rule-level causes of rearranging over ``L(nta)``, smallest
    witnesses first; empty when the transducer does not rearrange.

    Runs the Lemma 4.10 construction once per candidate ``(rule,
    frontier-pair)`` with the order violation pinned to that site, so
    every returned finding is independently witnessed.

    The pre-filter drops only candidate sites whose pinned run is
    provably empty (unrealizable rule, or a branch state that can never
    route text to the output), so the findings — including each
    witness — are byte-identical with pre-filtering off.
    """
    summary = _resolve_prefilter(transducer, nta, prefilter)
    if summary is not None and summary.has_pass("text-flow") and summary.order_safe:
        _log_skip("rearranging_findings", "text-flow")
        return ()
    site_filter = _productive_site_filter(summary) if summary is not None else None
    universe = set(nta.alphabet) | set(transducer.alphabet)
    if intersect_nta(rearranging_nta(transducer, universe, site_filter), nta).is_empty():
        return ()
    findings: List[RearrangingFinding] = []
    for (state, symbol), _rhs in sorted(transducer.rules.items()):
        frontier = transducer.rhs_frontier_states(state, symbol)
        pairs: Set[Tuple[str, str]] = set()
        for j1 in range(len(frontier)):
            for j2 in range(j1 + 1, len(frontier)):
                pairs.add((frontier[j2], frontier[j1]))  # (q1_next, q2_next)
        for q1_next, q2_next in sorted(pairs):
            if site_filter is not None and not site_filter(
                state, symbol, q1_next, q2_next
            ):
                obs.add("ptime.rearranging_sites_pruned")
                continue
            def pinned(q: str, a: str, t1: str, t2: str) -> bool:
                return (q, a) == (state, symbol) and (t1, t2) == (q1_next, q2_next)

            localized = rearranging_nta(transducer, universe, violation_filter=pinned)
            witness = intersect_nta(localized, nta).witness()
            if witness is not None:
                findings.append(
                    RearrangingFinding(
                        rule=(state, symbol),
                        pair=(q2_next, q1_next),
                        witness=make_value_unique(witness),
                    )
                )
    findings.sort(key=lambda f: (f.witness.size, f.rule, f.pair))
    return tuple(findings)
