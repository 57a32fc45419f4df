"""Compiling MSO formulas to tree automata (Thatcher–Wright on the
first-child/next-sibling encoding).

This is the effective core behind Section 5.3: every MSO formula over
unranked text trees compiles to a :class:`~repro.automata.bta.BTA`
over *marked* binary labels ``(base, marks)`` where ``base`` is a label
of ``Sigma ∪ {text}`` and ``marks`` is the set of free variables true
at that node.  The compiled automaton accepts exactly the encodings of
``(tree, assignment)`` pairs satisfying the formula; each first-order
variable is marked at exactly one node.

Constructions (all classical):

* atoms — direct small automata on the binary encoding: an unranked
  child is the left child followed by ``right*``; a following sibling
  is ``right+``;
* conjunction/disjunction — lift both sides to the union of their free
  variables (cylindrification plus singleton constraints for added
  first-order variables), then product/union;
* negation — complement relative to the *universe* automaton (valid
  single-tree encodings, correctly marked);
* quantifiers — projection (erase the variable's bit).

Negation determinizes, so nesting negations produces the classical
non-elementary tower — measured in benchmark E8.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from .. import obs
from ..automata.bta import BTA, BTree, intersect_bta, union_bta
from ..automata.fcns import decode_tree
from ..automata.nta import TEXT
from ..trees.tree import Node, Tree
from .ast import (
    And,
    Child,
    Eq,
    ExistsFO,
    ExistsSO,
    FO,
    Formula,
    In,
    Lab,
    Not,
    Or,
    Sibling,
    formula_size,
    free_variables,
    negation_nesting,
)

__all__ = [
    "MarkedLabel",
    "marked_alphabet",
    "encode_marked",
    "CompiledPattern",
    "compile_mso",
    "sentence_bta",
    "mso_sentence_holds",
]

#: A marked binary label: ``(base_label, frozenset_of_variables)``.
MarkedLabel = Tuple[str, FrozenSet[str]]


def marked_alphabet(sigma: Iterable[str], variables: Iterable[str]) -> List[MarkedLabel]:
    """All labels ``(a, S)`` for ``a`` in ``sigma ∪ {text}`` and ``S``
    a subset of ``variables``."""
    bases = sorted(set(sigma) | {TEXT})
    var_list = sorted(set(variables))
    labels: List[MarkedLabel] = []
    for r in range(len(var_list) + 1):
        for combo in itertools.combinations(var_list, r):
            marks = frozenset(combo)
            for base in bases:
                labels.append((base, marks))
    return labels


def encode_marked(t: Tree, assignment: Mapping[str, object]) -> BTree:
    """FCNS-encode ``t`` with variable marks from ``assignment``
    (FO variables map to node addresses, SO variables to sets)."""
    marks_at: Dict[Node, Set[str]] = {}
    for var, value in assignment.items():
        if isinstance(value, tuple):  # a single node address
            marks_at.setdefault(value, set()).add(var)
        else:
            for node in value:  # type: ignore[union-attr]
                marks_at.setdefault(node, set()).add(var)

    def encode_hedge_at(parent: Node, start_index: int, count: int) -> Optional[BTree]:
        if start_index > count:
            return None
        address = parent + (start_index,)
        sub = t.subtree(address)
        base = TEXT if sub.is_text else sub.label
        label: MarkedLabel = (base, frozenset(marks_at.get(address, ())))
        left = encode_hedge_at(address, 1, len(sub.children))
        right = encode_hedge_at(parent, start_index + 1, count)
        return BTree(label, left, right)

    root = t.subtree((1,))
    base = TEXT if root.is_text else root.label
    label = (base, frozenset(marks_at.get((1,), ())))
    return BTree(label, encode_hedge_at((1,), 1, len(root.children)), None)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _valid_marked_encoding(sigma: Iterable[str], variables: Iterable[str]) -> BTA:
    """Valid single-tree encodings over the marked alphabet: the root
    has a nil right child and text nodes have nil left children.
    Marks are unconstrained here."""
    nil, ok_last, ok_more = "nil", "ok-rnil", "ok-rsome"
    alphabet = marked_alphabet(sigma, variables)
    transitions: Dict[MarkedLabel, Dict[Tuple[str, str], Set[str]]] = {}
    for label in alphabet:
        base, _marks = label
        bucket: Dict[Tuple[str, str], Set[str]] = {}
        lefts = (nil,) if base == TEXT else (nil, ok_last, ok_more)
        for left in lefts:
            for right, result in ((nil, ok_last), (ok_last, ok_more), (ok_more, ok_more)):
                bucket[(left, right)] = {result}
        transitions[label] = bucket
    return BTA([nil, ok_last, ok_more], alphabet, [nil], transitions, [ok_last])


def _singleton_bta(sigma: Iterable[str], var: str, variables: Iterable[str]) -> BTA:
    """Exactly one node carries the mark of ``var``."""
    alphabet = marked_alphabet(sigma, variables)
    transitions: Dict[MarkedLabel, Dict[Tuple[int, int], Set[int]]] = {}
    for label in alphabet:
        _base, marks = label
        here = 1 if var in marks else 0
        bucket: Dict[Tuple[int, int], Set[int]] = {}
        for left in (0, 1):
            for right in (0, 1):
                total = left + right + here
                if total <= 1:
                    bucket[(left, right)] = {total}
        transitions[label] = bucket
    return BTA([0, 1], alphabet, [0], transitions, [1])


_UNIVERSE_CACHE: Dict[Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]], BTA] = {}


def _universe(sigma: Tuple[str, ...], free: Mapping[str, str]) -> BTA:
    """Valid single-tree encodings, each FO variable marked once
    (memoized — negation re-requests the same universes constantly)."""
    key = (tuple(sigma), tuple(sorted(free.items())))
    cached = _UNIVERSE_CACHE.get(key)
    if cached is not None:
        return cached
    result = _valid_marked_encoding(sigma, free)
    for var, kind in sorted(free.items()):
        if kind == FO:
            result = intersect_bta(result, _singleton_bta(sigma, var, free)).trim()
    _UNIVERSE_CACHE[key] = result
    return result


def _lab_bta(sigma: Tuple[str, ...], label_name: str, var: str) -> BTA:
    """``lab_sigma(x)``: the ``x``-marked node has base label
    ``label_name`` (``text`` tests text nodes)."""
    alphabet = marked_alphabet(sigma, [var])
    transitions: Dict[MarkedLabel, Dict[Tuple[int, int], Set[int]]] = {}
    for label in alphabet:
        base, marks = label
        here = 1 if var in marks else 0
        if here and base != label_name:
            continue  # the marked node must carry the tested label
        bucket: Dict[Tuple[int, int], Set[int]] = {}
        for left in (0, 1):
            for right in (0, 1):
                total = left + right + here
                if total <= 1:
                    bucket[(left, right)] = {total}
        transitions[label] = bucket
    return BTA([0, 1], alphabet, [0], transitions, [1])


def _child_bta(sigma: Tuple[str, ...], parent_var: str, child_var: str) -> BTA:
    """``E(x, y)``: in the encoding, ``y`` lies on the right spine of
    ``x``'s left subtree."""
    alphabet = marked_alphabet(sigma, [parent_var, child_var])
    zero, spine, done = "0", "spine", "done"
    transitions: Dict[MarkedLabel, Dict[Tuple[str, str], Set[str]]] = {}
    for label in alphabet:
        _base, marks = label
        has_x = parent_var in marks
        has_y = child_var in marks
        bucket: Dict[Tuple[str, str], Set[str]] = {}
        if has_x and has_y:
            pass  # a node cannot be its own parent
        elif has_y:
            bucket[(zero, zero)] = {spine}
        elif has_x:
            # x's children hedge is its left subtree; y on its spine.
            bucket[(spine, zero)] = {done}
        else:
            bucket[(zero, zero)] = {zero}
            bucket[(zero, spine)] = {spine}  # y deeper in the sibling chain
            bucket[(zero, done)] = {done}
            bucket[(done, zero)] = {done}
        if bucket:
            transitions[label] = bucket
    return BTA([zero, spine, done], alphabet, [zero], transitions, [done])


def _sibling_bta(sigma: Tuple[str, ...], left_var: str, right_var: str) -> BTA:
    """``x < y``: ``y`` is reachable from ``x`` by one or more
    next-sibling (binary right) steps."""
    alphabet = marked_alphabet(sigma, [left_var, right_var])
    zero, spine, done = "0", "spine", "done"
    transitions: Dict[MarkedLabel, Dict[Tuple[str, str], Set[str]]] = {}
    for label in alphabet:
        _base, marks = label
        has_x = left_var in marks
        has_y = right_var in marks
        bucket: Dict[Tuple[str, str], Set[str]] = {}
        if has_x and has_y:
            pass  # strict order: distinct nodes
        elif has_y:
            bucket[(zero, zero)] = {spine}
        elif has_x:
            # y strictly to the right: on the spine of x's right subtree.
            bucket[(zero, spine)] = {done}
        else:
            bucket[(zero, zero)] = {zero}
            bucket[(zero, spine)] = {spine}
            bucket[(zero, done)] = {done}
            bucket[(done, zero)] = {done}
        if bucket:
            transitions[label] = bucket
    return BTA([zero, spine, done], alphabet, [zero], transitions, [done])


def _eq_bta(sigma: Tuple[str, ...], left_var: str, right_var: str) -> BTA:
    """``x = y``: one node carries both marks."""
    alphabet = marked_alphabet(sigma, [left_var, right_var])
    transitions: Dict[MarkedLabel, Dict[Tuple[int, int], Set[int]]] = {}
    for label in alphabet:
        _base, marks = label
        has_x = left_var in marks
        has_y = right_var in marks
        bucket: Dict[Tuple[int, int], Set[int]] = {}
        if has_x != has_y:
            pass  # half-marked: reject
        else:
            here = 1 if has_x else 0
            for left in (0, 1):
                for right in (0, 1):
                    total = left + right + here
                    if total <= 1:
                        bucket[(left, right)] = {total}
        if bucket:
            transitions[label] = bucket
    return BTA([0, 1], alphabet, [0], transitions, [1])


def _in_bta(sigma: Tuple[str, ...], element: str, set_var: str) -> BTA:
    """``x in X``: the ``x``-marked node also carries the ``X`` mark."""
    alphabet = marked_alphabet(sigma, [element, set_var])
    transitions: Dict[MarkedLabel, Dict[Tuple[int, int], Set[int]]] = {}
    for label in alphabet:
        _base, marks = label
        has_x = element in marks
        if has_x and set_var not in marks:
            continue
        here = 1 if has_x else 0
        bucket: Dict[Tuple[int, int], Set[int]] = {}
        for left in (0, 1):
            for right in (0, 1):
                total = left + right + here
                if total <= 1:
                    bucket[(left, right)] = {total}
        transitions[label] = bucket
    return BTA([0, 1], alphabet, [0], transitions, [1])


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class CompiledPattern:
    """A compiled MSO formula: a BTA over marked labels plus metadata.

    Invariant: the automaton's language is exactly the set of marked
    encodings ``enc(t, assignment)`` of trees over ``sigma`` and
    assignments of the free variables satisfying the formula.
    """

    __slots__ = ("bta", "free", "sigma", "formula")

    def __init__(
        self,
        bta: BTA,
        free: Mapping[str, str],
        sigma: Tuple[str, ...],
        formula: Optional[Formula],
    ) -> None:
        self.bta = bta
        self.free = dict(free)
        self.sigma = sigma
        self.formula = formula

    def holds(self, t: Tree, assignment: Mapping[str, object]) -> bool:
        """Whether ``t |= formula`` under ``assignment`` (automaton run:
        linear in ``|t|``)."""
        if set(assignment) != set(self.free):
            raise ValueError(
                "assignment keys %r do not match free variables %r"
                % (sorted(assignment), sorted(self.free))
            )
        normalized: Dict[str, object] = {}
        for var, value in assignment.items():
            if self.free[var] == FO:
                if not (isinstance(value, tuple) and all(isinstance(i, int) for i in value)):
                    raise TypeError("FO variable %r needs a node address" % var)
                normalized[var] = value
            else:
                normalized[var] = frozenset(value)  # type: ignore[arg-type]
        return self.bta.accepts(encode_marked(t, normalized))

    def witness_tree(self) -> Optional[Tree]:
        """For sentences: a smallest satisfying tree, or ``None``."""
        if self.free:
            raise ValueError("witness_tree applies to sentences only")
        encoded = self.bta.witness()
        if encoded is None:
            return None
        return decode_tree(encoded.relabel(lambda lab: lab[0]))

    def is_empty(self) -> bool:
        """Whether no (tree, assignment) satisfies the formula."""
        return self.bta.is_empty()

    def __repr__(self) -> str:
        return "CompiledPattern(free=%r, %r)" % (sorted(self.free), self.bta)


def _lift(pattern: CompiledPattern, target_free: Mapping[str, str]) -> BTA:
    """Cylindrify ``pattern`` to the variable set ``target_free`` and
    re-impose singleton constraints for the added FO variables."""
    current_vars = frozenset(pattern.free)
    target_vars = sorted(target_free)
    if set(target_vars) == set(current_vars):
        return pattern.bta
    new_alphabet = marked_alphabet(pattern.sigma, target_vars)

    def erase(label: MarkedLabel) -> MarkedLabel:
        base, marks = label
        return (base, marks & current_vars)

    lifted = pattern.bta.preimage(erase, new_alphabet)
    for var in target_vars:
        if var not in current_vars and target_free[var] == FO:
            lifted = intersect_bta(
                lifted, _singleton_bta(pattern.sigma, var, target_vars)
            ).trim()
    return lifted


def _project(pattern: CompiledPattern, var: str) -> BTA:
    """Erase ``var``'s marks (the automaton for ∃var)."""

    def erase(label: MarkedLabel) -> MarkedLabel:
        base, marks = label
        return (base, marks - {var})

    return pattern.bta.image(erase)


#: Memo for compiled subformulas, keyed by (formula, sigma).  Formulas
#: are hashable ASTs, so structurally repeated subterms (e.g. the
#: configuration-reachability formula reused across markers) hit it.
_COMPILE_CACHE: Dict[Tuple[Formula, Tuple[str, ...]], "CompiledPattern"] = {}


def clear_compile_cache() -> None:
    """Drop all memoized compilations (mainly for benchmarks)."""
    _COMPILE_CACHE.clear()


def compile_mso(
    formula: Formula, sigma: Iterable[str], trim: bool = True
) -> CompiledPattern:
    """Compile an MSO formula over alphabet ``sigma`` to a tree
    automaton on marked encodings.

    ``sigma`` must contain every label mentioned by the formula (the
    text placeholder is implicit).
    """
    sigma_tuple = tuple(sorted(set(sigma) - {TEXT}))
    if not obs.enabled():
        return _compile(formula, sigma_tuple, trim)
    with obs.span("mso.compile") as sp:
        sp.set("formula_size", formula_size(formula))
        sp.set("negation_nesting", negation_nesting(formula))
        sp.set("sigma", len(sigma_tuple))
        result = _compile(formula, sigma_tuple, trim)
        sp.set("bta_states", len(result.bta.states))
        obs.gauge_max("mso.compile.automaton_states", len(result.bta.states))
        obs.observe("mso.compile.bta_size", len(result.bta.states))
        obs.observe("mso.compile.ms", sp.duration_ns / 1e6)
        obs.debug("mso.compile", "formula compiled",
                  formula_size=formula_size(formula),
                  bta_states=len(result.bta.states))
        return result


def _compile(formula: Formula, sigma: Tuple[str, ...], trim: bool) -> CompiledPattern:
    if not trim:
        return _compile_uncached(formula, sigma, trim)
    cached = _COMPILE_CACHE.get((formula, sigma))
    if cached is not None:
        obs.add("mso.compile.cache_hits")
        return cached
    # Alpha-normalize the free variables so that formulas differing only
    # in marker names share one compilation: compile the canonical
    # variant, then rename the automaton's marks back (a relabelling,
    # no determinization).
    from .ast import substitute_free

    free = free_variables(formula)
    ordered = sorted(free)
    mapping = {var: "cv%d__" % index for index, var in enumerate(ordered)}
    identity = all(var == canon for var, canon in mapping.items())
    if identity:
        result = _compile_uncached(formula, sigma, trim)
        _COMPILE_CACHE[(formula, sigma)] = result
        return result
    canonical = substitute_free(formula, mapping, fresh_prefix="cb")
    canonical_key = (canonical, sigma)
    canonical_pattern = _COMPILE_CACHE.get(canonical_key)
    if canonical_pattern is None:
        canonical_pattern = _compile_uncached(canonical, sigma, trim)
        _COMPILE_CACHE[canonical_key] = canonical_pattern
    else:
        obs.add("mso.compile.cache_hits")
    inverse = {canon: var for var, canon in mapping.items()}

    def rename(label: MarkedLabel) -> MarkedLabel:
        base, marks = label
        return (base, frozenset(inverse.get(mark, mark) for mark in marks))

    renamed = canonical_pattern.bta.image(rename)
    result = CompiledPattern(renamed, free, sigma, formula)
    _COMPILE_CACHE[(formula, sigma)] = result
    return result


def _compile_uncached(formula: Formula, sigma: Tuple[str, ...], trim: bool) -> CompiledPattern:
    free = free_variables(formula)
    obs.add("mso.compile.cache_misses")

    def finish(bta: BTA) -> CompiledPattern:
        if trim:
            bta = bta.trim()
        if obs.enabled():
            obs.gauge_max("mso.max_bta_states", len(bta.states))
            obs.observe("mso.node_size", len(bta.states))
            # Per-formula-node attribution of automaton growth: which
            # connective (Not, And, ExistsSO, ...) the states belong to.
            obs.add("mso.node_states", len(bta.states),
                    node=type(formula).__name__, site="mso.compile")
        return CompiledPattern(bta, free, sigma, formula)

    if isinstance(formula, Lab):
        if formula.label != TEXT and formula.label not in sigma:
            raise ValueError("label %r not in the alphabet" % formula.label)
        atom = _lab_bta(sigma, formula.label, formula.var)
        return finish(intersect_bta(atom, _universe(sigma, free)))
    if isinstance(formula, Child):
        atom = _child_bta(sigma, formula.parent, formula.child)
        return finish(intersect_bta(atom, _universe(sigma, free)))
    if isinstance(formula, Sibling):
        atom = _sibling_bta(sigma, formula.left, formula.right)
        return finish(intersect_bta(atom, _universe(sigma, free)))
    if isinstance(formula, Eq):
        atom = _eq_bta(sigma, formula.left, formula.right)
        return finish(intersect_bta(atom, _universe(sigma, free)))
    if isinstance(formula, In):
        atom = _in_bta(sigma, formula.element, formula.set_var)
        return finish(intersect_bta(atom, _universe(sigma, free)))
    if isinstance(formula, Not):
        inner = _compile(formula.inner, sigma, trim)
        complemented = inner.bta.complement()
        if obs.enabled():
            # The determinization step: record the blow-up per negation
            # nesting depth (the stage sizes of the non-elementary tower).
            depth = negation_nesting(formula)
            obs.add("mso.negations")
            obs.add("mso.negation.input_states", len(inner.bta.states))
            # Same flat total as always; the label splits the
            # determinization blow-up by negation nesting depth.
            obs.add("mso.negation.output_states", len(complemented.states),
                    depth=depth, site="mso.compile")
            obs.gauge_max("mso.negation.depth%d.states" % depth, len(complemented.states))
        return finish(intersect_bta(complemented, _universe(sigma, free)))
    if isinstance(formula, (And, Or)):
        left = _compile(formula.left, sigma, trim)
        right = _compile(formula.right, sigma, trim)
        lifted_left = _lift(left, free)
        lifted_right = _lift(right, free)
        if isinstance(formula, And):
            obs.add("mso.products")
            return finish(intersect_bta(lifted_left, lifted_right))
        obs.add("mso.unions")
        return finish(union_bta(lifted_left, lifted_right))
    if isinstance(formula, (ExistsFO, ExistsSO)):
        obs.add("mso.projections")
        inner = _compile(formula.inner, sigma, trim)
        if formula.var not in inner.free:
            # Vacuous quantification over a variable that does not occur:
            # for FO the formula still requires a node to exist, which is
            # always true on trees; for SO likewise (any set works).
            return finish(inner.bta)
        projected = _project(inner, formula.var)
        return finish(projected)
    raise TypeError("unknown formula %r" % (formula,))


def sentence_bta(formula: Formula, sigma: Iterable[str]) -> BTA:
    """The tree automaton of a sentence: accepts exactly the encodings
    of trees over ``sigma`` satisfying it (no marks)."""
    pattern = compile_mso(formula, sigma)
    if pattern.free:
        raise ValueError("not a sentence; free variables %r" % sorted(pattern.free))
    return pattern.bta


def mso_sentence_holds(t: Tree, formula: Formula, sigma: Iterable[str]) -> bool:
    """Evaluate a sentence by compiling and running the automaton."""
    return sentence_bta(formula, sigma).accepts(encode_marked(t, {}))
