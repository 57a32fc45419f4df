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
The result is a deterministic unranked tree automaton over input trees.

Typechecking only asks about trees of ``Sin``, so the fixpoint runs
over ``Sin``'s horizontals and reaches only the vectors and running
products that trees of ``Sin`` reach: the inverse type *relative to*
``Sin``.  Typechecking is the emptiness of its invalid part intersected
with ``Sin``.  Relative to every tree over the alphabet
(``universal_nta``), it is the classical, schema-independent inverse
type.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs

if TYPE_CHECKING:  # pragma: no cover
    from ..lint.dataflow import DataflowSummary
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
    (:meth:`initial_summary`).
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
    """The vectors (or running products) the walk has reached, as id
    tuples named ``(prefix, i)`` in discovery order."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.names: Dict[_Ids, Tuple[str, int]] = {}

    def add(self, idents: _Ids) -> None:
        if idents not in self.names:
            self.names[idents] = (self.prefix, len(self.names))


#: A place in a schema horizontal: (structure number, NFA state).
_Position = Tuple[int, object]


class _SchemaHorizontals:
    """The input schema's horizontals, in an order the schema alone
    fixes.

    Entries are taken sorted by ``repr``.  Entries whose epsilon-free
    horizontals are :meth:`~repro.strings.nfa.NFA.with_finals`
    siblings share one *structure*, numbered in that order, and each
    structure's moves are sorted by ``repr`` once; so the walk, and the
    automaton it names, does not depend on set iteration or the hash
    seed.  The epsilon-free forms live as long as this object, so no
    structure key outlives its transition map (DESIGN.md A6).
    """

    def __init__(self, schema: NTA) -> None:
        self._free: Dict[NFA, NFA] = {}
        numbers: Dict[Tuple[int, object], int] = {}
        #: The initial NFA state of each structure.
        self.starts: List[object] = []
        #: The ``(schema state, label)`` entries that accept at a place.
        self.finishers: Dict[_Position, List[Tuple[object, str]]] = {}
        #: The moves ``(schema state read, target)`` out of a place.
        self.moves: Dict[_Position, List[Tuple[object, object]]] = {}
        #: The moves ``(structure, source, target)`` reading a schema state.
        self.readers: Dict[object, List[Tuple[int, object, object]]] = {}
        #: The schema states that admit a text leaf.
        self.text_states: List[object] = []
        for state, symbol in sorted(schema.delta, key=repr):
            horizontal = schema.delta[(state, symbol)]
            if symbol == TEXT:
                if horizontal.accepts_empty_word():
                    self.text_states.append(state)
                continue
            free = self._free.get(horizontal)
            if free is None:
                free = self._free[horizontal] = horizontal.without_epsilon()
            number = numbers.get(free.structure_key())
            if number is None:
                number = numbers[free.structure_key()] = len(self.starts)
                self.starts.append(free.initial)
                for source in sorted(free.states, key=repr):
                    moves = sorted(
                        ((read, target)
                         for read, targets in free.moves(source) for target in targets),
                        key=repr,
                    )
                    self.moves[(number, source)] = moves
                    for read, target in moves:
                        self.readers.setdefault(read, []).append((number, source, target))
            for final in sorted(free.finals, key=repr):
                self.finishers.setdefault((number, final), []).append((state, symbol))


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
    input_schema: NTA,
    accept_valid: bool = False,
) -> NTA:
    """The inverse type relative to ``input_schema``: an NTA that, among
    the trees of ``L(input_schema)``, accepts exactly those on which the
    output is *invalid* (or valid, with ``accept_valid``).

    States are summary vectors (exponentially many in the worst case —
    the EXPTIME construction); horizontal languages share one DFA whose
    states are the running products of child vectors.  One worklist
    walks the schema's horizontals: it extends a running product only
    by a vector that some subtree evaluates to in the schema state read
    next, and evaluates a node's vector only where the product
    completes a schema horizontal for its label.  Every run on a schema
    tree stays inside what the walk builds, and what it builds is part
    of the classical inverse type, so the intersection with the schema
    (its emptiness, its least tree) is the classical one (DESIGN.md
    A10).  Given ``universal_nta(alphabet)``, the walk builds the
    classical, schema-independent type.
    """
    with obs.span("typecheck.inverse_type") as sp:
        out = _output_type(output_dtd)
        evaluator = _Evaluator(transducer, out)
        schema = _SchemaHorizontals(input_schema)

        unit_product = (evaluator.unit,) * len(evaluator.states)
        text_vector = evaluator.text_vector

        # The worklist runs over configurations (structure, place,
        # running product) and over the vectors that schema states
        # reach.  A configuration and a vector are paired when the later
        # of the two is expanded, so each pair is processed exactly once.
        vectors = _Reached("v")
        products = _Reached("h")
        products.add(unit_product)
        transitions_h: Dict[Tuple[_Ids, _Ids], _Ids] = {}
        results: Dict[Tuple[str, _Ids], _Ids] = {}
        concat = evaluator.concat
        reached: Dict[object, Set[_Ids]] = {}
        expanded: Dict[object, List[_Ids]] = {}
        expanded_at: Dict[_Position, List[_Ids]] = {}
        configs: Set[Tuple[int, object, _Ids]] = set()
        config_work: List[Tuple[int, object, _Ids]] = []
        vector_work: List[Tuple[object, _Ids]] = []

        def reach(state: object, vector: _Ids) -> None:
            vectors.add(vector)
            seen = reached.setdefault(state, set())
            if vector not in seen:
                seen.add(vector)
                vector_work.append((state, vector))

        def visit(number: int, place: object, product: _Ids) -> None:
            config = (number, place, product)
            if config not in configs:
                configs.add(config)
                config_work.append(config)

        def extend(number: int, target: object, product: _Ids, vector: _Ids) -> None:
            key = (product, vector)
            combined = transitions_h.get(key)
            if combined is None:
                combined = transitions_h[key] = tuple(map(concat, product, vector))
                products.add(combined)
            visit(number, target, combined)

        for state in schema.text_states:
            reach(state, text_vector)
        for number, start in enumerate(schema.starts):
            visit(number, start, unit_product)
        while config_work or vector_work:
            if config_work:
                number, place, product = config_work.pop()
                for state, symbol in schema.finishers.get((number, place), ()):
                    key2 = (symbol, product)
                    vector = results.get(key2)
                    if vector is None:
                        vector = results[key2] = evaluator.combine(symbol, product)
                    reach(state, vector)
                for state, target in schema.moves[(number, place)]:
                    for vector in expanded.get(state, ()):
                        extend(number, target, product, vector)
                expanded_at.setdefault((number, place), []).append(product)
            else:
                state, vector = vector_work.pop()
                for number, source, target in schema.readers.get(state, ()):
                    for product in expanded_at.get((number, source), ()):
                        extend(number, target, product, vector)
                expanded.setdefault(state, []).append(vector)

        vector_name = vectors.names
        product_name = products.names
        delta: Dict[Tuple[object, str], NFA] = {}
        # One shared horizontal transition structure (a DFA over vector
        # symbols with product states); per-rule automata differ only in
        # their final-state sets and share it structurally.
        h_edges = [
            (product_name[product], vector_name[vector], product_name[target])
            for (product, vector), target in transitions_h.items()
        ]
        base_h = NFA(
            product_name.values(), vector_name.values(), h_edges,
            product_name[unit_product], [],
        )
        # Group the products by the vector they yield under each label.
        finals_of: Dict[Tuple[_Ids, str], Set[object]] = {}
        for (symbol, product), vector in results.items():
            finals_of.setdefault((vector, symbol), set()).add(product_name[product])
        for (vector, symbol), finals in finals_of.items():
            delta[(vector_name[vector], symbol)] = base_h.with_finals(finals)
        eps_nfa = NFA([0], [], [], 0, [0])
        if schema.text_states:
            delta[(vector_name[text_vector], TEXT)] = eps_nfa

        # Root: a fresh initial state accepting trees whose root vector
        # is (in)valid.  The NTA needs one initial state: add q_root
        # whose horizontal languages mirror those of the qualifying
        # vectors.
        root_vectors = [
            vector for vector in vector_name if evaluator.root_ok(vector) == accept_valid
        ]
        from ..strings.nfa import union_nfa

        for symbol in sorted(input_schema.alphabet):
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
        if schema.text_states and text_vector in root_vectors:
            delta[(("root",), TEXT)] = eps_nfa
        states: Set[object] = set(vector_name.values()) | {("root",)}
        result = NTA(states, input_schema.alphabet, delta, ("root",))
        sp.set("states", len(result.states))
        # The EXPTIME blow-up gauge: peak reachable-vector automaton
        # size across every inverse-type construction of the run.
        obs.gauge_max("typecheck.inverse_type_states", len(result.states))
        obs.add("typecheck.products", len(product_name))
        if obs.enabled():
            _credit_vectors(result)
        return result


def _credit_vectors(inverse_type: NTA) -> None:
    """Count ``typecheck.vectors``, one per vector state, each credited
    to the least input label among the transitions entering it (a
    node with that label can evaluate to the vector; the text vector's
    own transition is ``text``).  A function of the automaton alone."""
    least: Dict[object, str] = {}
    for state, symbol in inverse_type.delta:
        if state != inverse_type.initial and (state not in least or symbol < least[state]):
            least[state] = symbol
    credit: Dict[str, int] = {}
    for label in least.values():
        credit[label] = credit.get(label, 0) + 1
    for label in sorted(credit):
        obs.add("typecheck.vectors", credit[label], label=label, site="inverse_type")


def typechecks(
    transducer: TopDownTransducer,
    input_schema: NTA,
    output_dtd: DTD,
    prefilter: Optional["DataflowSummary"] = None,
) -> bool:
    """Whether ``T(t)`` is valid w.r.t. the output DTD for *every*
    ``t ∈ L(input_schema)`` (EXPTIME in general): the emptiness of the
    inverse type relative to the schema, intersected with the schema.

    A sound dataflow pre-filter (see :mod:`repro.lint.dataflow`) can
    decide first.  Every label in the summary's exact ``output_labels``
    set is emitted on some valid input (a realizable rule fires there
    and its rhs labels are instantiated unconditionally), so any such
    label outside the output DTD's alphabet makes the output invalid on
    that input: the answer is definitely ``False``, no inverse type
    needed.  The inverse type itself needs no label restriction: its
    walk over the schema never visits a label without a schema rule.
    """
    from ..lint.dataflow import log_skip, resolve_prefilter

    summary = resolve_prefilter(transducer, input_schema, prefilter)
    with obs.span("typecheck.decide") as sp:
        if summary is not None and summary.has_pass("label-flow"):
            bad_labels = sorted(summary.output_labels - set(output_dtd.alphabet))
            if bad_labels:
                sp.set("verdict", False)
                log_skip(
                    "typechecks", "label-flow", bad_label=bad_labels[0]
                )
                obs.info("typecheck", "typecheck decided",
                         typechecks=False, product_states=0)
                return False
        bad = inverse_type_nta(
            transducer, output_dtd, input_schema, accept_valid=False
        )
        with obs.span("typecheck.emptiness") as inner:
            product = intersect_nta(bad, input_schema)
            inner.set("states", len(product.states))
            verdict = product.is_empty()
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
            transducer, output_dtd, input_schema, accept_valid=False
        )
        return intersect_nta(bad, input_schema).witness()
