"""Typechecking top-down uniform transducers against output DTDs.

Section 6 of the paper contrasts its tractability result against the
*typechecking* problem ([13, 14, 15]): given an input schema ``Sin``,
an output schema ``Sout``, and a transducer ``T``, does ``T(t) ∈ Sout``
hold for every ``t ∈ Sin``?  Typechecking top-down uniform transducers
is EXPTIME-complete, while deciding text-preservation is PTIME — the
paper's headline separation.  This module implements typechecking (for
output schemas given as DTDs) so the separation can be *measured*
(benchmark E13).

Construction — the classical inverse-type computation, specialized to
DTDs:

The *summary* of an output hedge ``h`` w.r.t. the output DTD abstracts
everything its context can observe:

* per content model ``M_sigma``, the transition function induced on
  ``M_sigma`` by the root-label word of ``h``;
* a one-token abstraction of the root-label word itself (empty / a
  single label / "many") — needed at the top to check the root is one
  allowed start label;
* a flag: every node of ``h`` satisfies its content model.

Summaries form a monoid under hedge concatenation.  For a fixed input
tree, the vector ``q ↦ summary(T^q(t))`` is computed bottom-up; the
*set of reachable vectors* over all input trees is a fixpoint whose
states are exponential in the DTD — that is the EXPTIME construction.
The result is a deterministic unranked tree automaton over input trees;
typechecking is the emptiness of its complement intersected with
``Sin``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs

if TYPE_CHECKING:  # pragma: no cover
    from ..lint.dataflow import PrefilterArg
from ..automata.nta import NTA, TEXT, intersect_nta
from ..schema.dtd import DTD
from ..strings.dfa import DFA, determinize
from ..strings.nfa import NFA
from ..trees.tree import Tree
from .topdown import StateCall, TopDownTransducer

__all__ = [
    "Summary",
    "hedge_summary",
    "output_valid",
    "typechecks",
    "typecheck_counter_example",
    "inverse_type_nta",
]

#: The sequence abstraction tokens.
_EMPTY = "()"
_MANY = "(many)"

@functools.lru_cache(maxsize=8)
def _output_type(dtd: DTD) -> "_OutputType":
    """Preprocessed output types of the most recently used DTDs.

    DTDs hash by identity and are immutable once constructed;
    preprocessing determinizes every content model, which is worth
    reusing across per-tree checks.  The bound keeps a long-lived
    process that sees many output DTDs from holding all of them.
    """
    return _OutputType(dtd)


#: Placeholder consumed by content DFAs for output labels the DTD does
#: not know (the node itself is invalid; the word containing it can
#: never be accepted because no content model mentions the symbol).
_UNKNOWN = "__unknown_label__"


class _OutputType:
    """Preprocessed output DTD: complete content-model DFAs."""

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.labels: Tuple[str, ...] = tuple(sorted(dtd.alphabet))
        alphabet = frozenset(set(self.labels) | {TEXT, _UNKNOWN})
        self.dfas: Dict[str, DFA] = {
            label: determinize(dtd.content_model(label).without_epsilon(), alphabet=alphabet)
            for label in self.labels
        }
        if obs.enabled():
            obs.add("typecheck.content_dfas", len(self.dfas))
            obs.add(
                "typecheck.content_dfa_states",
                sum(len(dfa.states) for dfa in self.dfas.values()),
            )
        # Canonical state indexing per DFA for compact summaries.
        self.state_index: Dict[str, Dict[object, int]] = {}
        self.states_of: Dict[str, List[object]] = {}
        for label, dfa in self.dfas.items():
            ordered = sorted(dfa.states, key=repr)
            self.states_of[label] = ordered
            self.state_index[label] = {state: i for i, state in enumerate(ordered)}
        self.position: Dict[str, int] = {label: i for i, label in enumerate(self.labels)}
        self.identity: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(len(self.states_of[label]))) for label in self.labels
        )
        self._steps: Dict[str, Tuple[Tuple[int, ...], ...]] = {
            symbol: self._step_maps(symbol) for symbol in alphabet
        }

    def _step_maps(self, symbol: str) -> Tuple[Tuple[int, ...], ...]:
        maps: List[Tuple[int, ...]] = []
        for label in self.labels:
            dfa = self.dfas[label]
            index = self.state_index[label]
            maps.append(
                tuple(index[dfa.step(state, symbol)] for state in self.states_of[label])
            )
        return tuple(maps)

    def step_maps(self, symbol: str) -> Tuple[Tuple[int, ...], ...]:
        """The per-DFA transition functions of a single symbol (labels
        outside the DTD behave like the reject placeholder)."""
        maps = self._steps.get(symbol)
        return self._steps[_UNKNOWN] if maps is None else maps

    def accepts_word_maps(self, label: str, maps: Tuple[Tuple[int, ...], ...]) -> bool:
        """Whether the word inducing ``maps`` is in ``d(label)``."""
        dfa = self.dfas[label]
        index = self.state_index[label]
        ordered = self.states_of[label]
        reached = ordered[maps[self.position[label]][index[dfa.initial]]]
        return reached in dfa.finals


#: A hedge summary: (per-DFA maps, sequence abstraction, all-valid flag).
Summary = Tuple[Tuple[Tuple[int, ...], ...], str, bool]


def _unit(out: _OutputType) -> Summary:
    return (out.identity, _EMPTY, True)


def _compose_maps(
    first: Tuple[Tuple[int, ...], ...], second: Tuple[Tuple[int, ...], ...]
) -> Tuple[Tuple[int, ...], ...]:
    # Reading `first` then `second`: apply first, then second.
    return tuple(
        tuple(map(second_map.__getitem__, first_map))
        for first_map, second_map in zip(first, second)
    )


def _concat(out: _OutputType, left: Summary, right: Summary) -> Summary:
    maps = _compose_maps(left[0], right[0])
    if left[1] == _EMPTY:
        abstraction = right[1]
    elif right[1] == _EMPTY:
        abstraction = left[1]
    else:
        abstraction = _MANY
    return (maps, abstraction, left[2] and right[2])


def _single_tree(out: _OutputType, label: str, inner: Summary) -> Summary:
    """Summary of the one-tree hedge ``label(inner-hedge)``."""
    known = label in out.dtd.alphabet
    ok = known and inner[2] and out.accepts_word_maps(label, inner[0])
    return (out.step_maps(label), label, ok)


def _text_summary(out: _OutputType) -> Summary:
    return (out.step_maps(TEXT), TEXT, True)


#: A vector or running product: one summary id per transducer state.
_Ids = Tuple[int, ...]


class _Evaluator:
    """Computes transducer-state → summary vectors bottom-up.

    Summaries are interned: each distinct summary gets an integer id for
    the life of the evaluator, vectors and running products are tuples
    of ids, and concatenation and the single-tree step are memoized on
    ids, so ``_concat`` and ``_single_tree`` run once per distinct
    operand pair.  Callers decode ids at the boundary
    (:meth:`initial_summary`, :meth:`decode`).
    """

    def __init__(self, transducer: TopDownTransducer, out: _OutputType) -> None:
        self.transducer = transducer
        self.out = out
        self.states: Tuple[str, ...] = tuple(sorted(transducer.states))
        self._position = {state: i for i, state in enumerate(self.states)}
        self._summaries: List[Summary] = []
        self._ids: Dict[Summary, int] = {}
        self._concats: Dict[Tuple[int, int], int] = {}
        self._trees: Dict[Tuple[str, int], int] = {}
        self.unit = self._intern(_unit(out))
        text = self._intern(_text_summary(out))
        self.text_vector: _Ids = tuple(
            text if state in transducer.text_states else self.unit
            for state in self.states
        )

    def _intern(self, summary: Summary) -> int:
        found = self._ids.get(summary)
        if found is None:
            found = self._ids[summary] = len(self._summaries)
            self._summaries.append(summary)
        return found

    def decode(self, idents: _Ids) -> Tuple[Summary, ...]:
        """The summaries of a vector or running product."""
        return tuple(map(self._summaries.__getitem__, idents))

    def concat(self, left: int, right: int) -> int:
        key = (left, right)
        found = self._concats.get(key)
        if found is None:
            summaries = self._summaries
            found = self._concats[key] = self._intern(
                _concat(self.out, summaries[left], summaries[right])
            )
        return found

    def _single_tree(self, label: str, inner: int) -> int:
        key = (label, inner)
        found = self._trees.get(key)
        if found is None:
            found = self._trees[key] = self._intern(
                _single_tree(self.out, label, self._summaries[inner])
            )
        return found

    def combine(self, symbol: str, product: _Ids) -> _Ids:
        """The vector of a node labelled ``symbol`` whose children's
        concatenated summaries (one per transducer state) are
        ``product``."""
        vector: List[int] = []
        for state in self.states:
            rhs = self.transducer.rhs(state, symbol)
            vector.append(self.unit if rhs is None else self._eval_rhs(rhs, product))
        return tuple(vector)

    def _eval_rhs(self, items: Sequence[object], product: _Ids) -> int:
        result = self.unit
        for item in items:
            if isinstance(item, StateCall):
                result = self.concat(result, product[self._position[item.state]])
            else:
                inner = self._eval_rhs(item.children, product)  # type: ignore[union-attr]
                result = self.concat(result, self._single_tree(item.label, inner))  # type: ignore[union-attr]
        return result

    def vector_of_tree(self, t: Tree) -> _Ids:
        if t.is_text:
            return self.text_vector
        product = (self.unit,) * len(self.states)
        for child in t.children:
            product = tuple(map(self.concat, product, self.vector_of_tree(child)))
        return self.combine(t.label, product)

    def initial_summary(self, vector: _Ids) -> Summary:
        """The summary of the transducer's initial state in ``vector``."""
        return self._summaries[vector[self._position[self.transducer.initial]]]

    def root_ok(self, vector: _Ids) -> bool:
        """Whether a root with this vector produces a valid output tree."""
        _maps, abstraction, ok = self.initial_summary(vector)
        return ok and abstraction in self.out.dtd.start


class _Reached:
    """The vectors (or running products) the fixpoint has reached: id
    tuples, plus the set of their decoded forms.

    The worklist walks the decoded set.  Its order follows the
    summaries' hashes and fixes the order transitions are recorded in,
    and with it which of several equally small witnesses is found;
    walking the id tuples instead would change some witnesses.  Each
    decoded tuple is decoded and hashed once, and maps back to its ids
    by object identity, which is cheaper than hashing it again.
    """

    def __init__(self, evaluator: _Evaluator) -> None:
        self._decode = evaluator.decode
        self.ids: Set[_Ids] = set()
        self._decoded: Set[Tuple[Summary, ...]] = set()
        self._ids_of: Dict[int, _Ids] = {}
        self.work: List[_Ids] = []

    def add(self, idents: _Ids) -> bool:
        """Record ``idents``; whether it was new (then it is queued)."""
        if idents in self.ids:
            return False
        decoded = self._decode(idents)
        self.ids.add(idents)
        self._decoded.add(decoded)
        self._ids_of[id(decoded)] = idents
        self.work.append(idents)
        return True

    def walk(self) -> List[_Ids]:
        """The id tuples, in the decoded set's order."""
        return [self._ids_of[id(decoded)] for decoded in self._decoded]

    def names(self, prefix: str) -> Dict[_Ids, Tuple[str, int]]:
        """State names ``(prefix, i)``, numbered in ``repr`` order of the
        decoded tuples."""
        ordered = sorted(self._decoded, key=repr)
        return {self._ids_of[id(decoded)]: (prefix, i) for i, decoded in enumerate(ordered)}


def hedge_summary(transducer: TopDownTransducer, output_dtd: DTD, t: Tree) -> Summary:
    """The summary of ``T(t)`` (as a hedge) w.r.t. the output DTD —
    the per-tree building block of the inverse-type construction."""
    evaluator = _Evaluator(transducer, _output_type(output_dtd))
    return evaluator.initial_summary(evaluator.vector_of_tree(t))


def output_valid(transducer: TopDownTransducer, output_dtd: DTD, t: Tree) -> bool:
    """Whether ``T(t)`` is a single tree valid w.r.t. the output DTD —
    decided through summaries (cross-checked in tests against running
    the transducer and validating directly)."""
    evaluator = _Evaluator(transducer, _output_type(output_dtd))
    return evaluator.root_ok(evaluator.vector_of_tree(t))


def inverse_type_nta(
    transducer: TopDownTransducer,
    output_dtd: DTD,
    input_alphabet: Iterable[str],
    accept_valid: bool = False,
) -> NTA:
    """The inverse-type automaton: an NTA over input trees accepting
    exactly those on which the output is *invalid* (or valid, with
    ``accept_valid``).

    States are the reachable summary vectors (exponentially many in the
    worst case — the EXPTIME construction); horizontal languages are
    DFAs computing the running product of child summaries.
    """
    with obs.span("typecheck.inverse_type") as sp:
        result = _inverse_type_nta_impl(transducer, output_dtd, input_alphabet, accept_valid)
        sp.set("states", len(result.states))
        obs.observe("typecheck.inverse_type_size", len(result.states))
        if obs.enabled():
            # The EXPTIME blow-up gauge: peak reachable-vector automaton
            # size across every inverse-type construction of the run.
            obs.gauge_max("typecheck.inverse_type_states", len(result.states))
            obs.observe("typecheck.inverse_type.ms", sp.duration_ns / 1e6)
        obs.debug("typecheck", "inverse-type automaton built",
                  states=len(result.states), accept_valid=accept_valid)
        return result


def _inverse_type_nta_impl(
    transducer: TopDownTransducer,
    output_dtd: DTD,
    input_alphabet: Iterable[str],
    accept_valid: bool,
) -> NTA:
    out = _output_type(output_dtd)
    evaluator = _Evaluator(transducer, out)
    sigma = tuple(sorted(set(input_alphabet)))

    unit_product = (evaluator.unit,) * len(evaluator.states)
    text_vector = evaluator.text_vector

    # Discover reachable vectors and reachable running products with a
    # worklist: each (product, vector) pair and each (symbol, product)
    # pair is processed exactly once.
    vectors = _Reached(evaluator)
    products = _Reached(evaluator)
    vectors.add(text_vector)
    products.add(unit_product)
    transitions_h: Dict[Tuple[_Ids, _Ids], _Ids] = {}
    results: Dict[Tuple[str, _Ids], _Ids] = {}
    concat = evaluator.concat

    def pair(product: _Ids, vector: _Ids) -> None:
        key = (product, vector)
        if key in transitions_h:
            return
        combined = transitions_h[key] = tuple(map(concat, product, vector))
        products.add(combined)

    attribute = obs.enabled()
    vectors_by_label: Dict[str, int] = {}
    while products.work or vectors.work:
        if products.work:
            product = products.work.pop()
            for vector in vectors.walk():
                pair(product, vector)
            for symbol in sigma:
                key2 = (symbol, product)
                if key2 not in results:
                    vector = results[key2] = evaluator.combine(symbol, product)
                    if vectors.add(vector) and attribute:
                        # A fresh summary vector, credited to the input
                        # label whose combine step discovered it.
                        vectors_by_label[symbol] = vectors_by_label.get(symbol, 0) + 1
        else:
            vector = vectors.work.pop()
            for product in products.walk():
                pair(product, vector)

    if obs.enabled():
        attributed = 0
        for symbol in sorted(vectors_by_label):
            obs.add("typecheck.vectors", vectors_by_label[symbol],
                    label=symbol, site="inverse_type")
            attributed += vectors_by_label[symbol]
        # The seed text vector is the only vector no label discovered,
        # so the flat total stays exactly the number of vectors.
        remainder = len(vectors.ids) - attributed
        if remainder:
            obs.add("typecheck.vectors", remainder)
        obs.add("typecheck.products", len(products.ids))

    # Name the states compactly.
    vector_name = vectors.names("v")
    product_name = products.names("h")

    delta: Dict[Tuple[object, str], NFA] = {}
    # One shared horizontal transition structure (a DFA over vector
    # symbols with product states); per-rule automata differ only in
    # their final-state sets and share it structurally.
    h_states = list(product_name.values())
    h_edges = [
        (product_name[product], vector_name[vector], product_name[target])
        for (product, vector), target in transitions_h.items()
    ]
    base_h = NFA(h_states, list(vector_name.values()), h_edges, product_name[unit_product], [])

    product_order = products.walk()
    for symbol in sigma:
        # Group the products by the vector they yield under `symbol`.
        finals_of_vector: Dict[_Ids, Set[object]] = {}
        for product in product_order:
            vector = results[(symbol, product)]
            finals_of_vector.setdefault(vector, set()).add(product_name[product])
        for vector, finals in finals_of_vector.items():
            delta[(vector_name[vector], symbol)] = base_h.with_finals(finals)
    eps_nfa = NFA([0], [], [], 0, [0])
    delta[(vector_name[text_vector], TEXT)] = eps_nfa

    # Root: a fresh initial state accepting trees whose root vector is
    # (in)valid.  The NTA needs one initial state: add q_root whose
    # horizontal languages mirror those of the qualifying vectors.
    root_vectors = [
        vector
        for vector in vectors.walk()
        if evaluator.root_ok(vector) == accept_valid
    ]
    states: Set[object] = set(vector_name.values()) | {("root",)}
    from ..strings.nfa import union_nfa

    for symbol in sigma:
        parts = [
            delta[(vector_name[vector], symbol)]
            for vector in root_vectors
            if (vector_name[vector], symbol) in delta
        ]
        if not parts:
            continue
        combined_nfa = parts[0]
        for part in parts[1:]:
            combined_nfa = union_nfa(combined_nfa, part)
        delta[(("root",), symbol)] = combined_nfa
    if text_vector in root_vectors:
        delta[(("root",), TEXT)] = eps_nfa
    return NTA(states, sigma, delta, ("root",))


def typechecks(
    transducer: TopDownTransducer,
    input_schema: NTA,
    output_dtd: DTD,
    prefilter: "PrefilterArg" = None,
) -> bool:
    """Whether ``T(t)`` is valid w.r.t. the output DTD for *every*
    ``t ∈ L(input_schema)`` (EXPTIME in general).

    Two sound dataflow pre-filters (see :mod:`repro.lint.dataflow`):

    * **Bad-label short-circuit.**  Every label in the summary's exact
      ``output_labels`` set is emitted on some valid input (a realizable
      rule fires there and its rhs labels are instantiated
      unconditionally), so any such label outside the output DTD's
      alphabet makes the output invalid on that input: the answer is
      definitely ``False``, no inverse type needed.
    * **Sigma restriction.**  The inverse-type construction only needs
      the labels that occur in *some* tree of ``L(input_schema)``
      (``generated_labels``), not the schema's declared alphabet:
      trees using other labels are not in the intersection anyway.
      Note the restriction must come from the schema, not from the
      transducer's explored configurations — configuration exploration
      stops below deleted subtrees, but the schema may force labels
      there.
    """
    from ..lint.dataflow import log_skip, resolve_prefilter

    summary = resolve_prefilter(transducer, input_schema, prefilter)
    with obs.span("typecheck.decide") as sp:
        sigma: Iterable[str] = input_schema.alphabet
        if summary is not None:
            if summary.has_pass("label-flow"):
                bad_labels = sorted(summary.output_labels - set(output_dtd.alphabet))
                if bad_labels:
                    sp.set("verdict", False)
                    log_skip(
                        "typechecks", "label-flow", bad_label=bad_labels[0]
                    )
                    obs.info("typecheck", "typecheck decided",
                             typechecks=False, product_states=0)
                    return False
            restricted = set(summary.schema_generated_labels)
            obs.add(
                "typecheck.sigma_pruned",
                len(set(input_schema.alphabet) - restricted),
            )
            sigma = restricted
        bad = inverse_type_nta(
            transducer, output_dtd, sigma, accept_valid=False
        )
        with obs.span("typecheck.emptiness") as inner:
            product = intersect_nta(bad, input_schema)
            inner.set("states", len(product.states))
            verdict = product.is_empty()
        obs.observe("typecheck.product_size", len(product.states))
        if obs.enabled():
            obs.observe("typecheck.emptiness.ms", inner.duration_ns / 1e6)
        sp.set("verdict", verdict)
        obs.info("typecheck", "typecheck decided",
                 typechecks=verdict, product_states=len(product.states))
        return verdict


def typecheck_counter_example(
    transducer: TopDownTransducer, input_schema: NTA, output_dtd: DTD
) -> Optional[Tree]:
    """A smallest input tree whose output violates the output DTD, or
    ``None`` when the transducer typechecks."""
    with obs.span("typecheck.counter_example"):
        bad = inverse_type_nta(
            transducer, output_dtd, input_schema.alphabet, accept_valid=False
        )
        return intersect_nta(bad, input_schema).witness()
