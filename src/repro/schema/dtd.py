"""Document Type Definitions (paper, Section 2, Example 2.3).

A DTD ``D = (Sigma ⊎ {text}, C, d, Sd)`` maps each element label to a
regular *content model* over ``Sigma ⊎ {text}``, where ``text`` is the
placeholder for text nodes, plus a set of allowed root labels.

The module provides validation, the polynomial reduction algorithm the
paper references ([1, 16]: every DTD converts to an equivalent
*reduced* one — every defined label occurs in some valid tree), and the
standard translation into an :class:`~repro.automata.nta.NTA`, which is
how all decision procedures consume schemas.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple, Union

from ..automata.nta import NTA, TEXT
from ..strings.nfa import NFA
from ..strings.regex import Regex, parse_regex
from ..trees.tree import Tree

__all__ = ["DTD", "dtd_to_nta"]


class DTD:
    """A Document Type Definition.

    Parameters
    ----------
    content:
        Mapping from element labels to content models; each model is a
        regex source string (symbols are element labels or ``text``), a
        parsed :class:`~repro.strings.regex.Regex`, or an NFA over
        labels.
    start:
        The allowed root labels ``Sd``.

    The alphabet ``Sigma`` is the set of keys of ``content``.
    """

    __slots__ = ("alphabet", "start", "_models", "_sources")

    def __init__(
        self,
        content: Mapping[str, Union[str, Regex, NFA]],
        start: Iterable[str],
    ) -> None:
        self.alphabet: FrozenSet[str] = frozenset(content.keys())
        if TEXT in self.alphabet:
            raise ValueError("%r is the text placeholder and cannot be an element label" % TEXT)
        self.start: FrozenSet[str] = frozenset(start)
        if not self.start <= self.alphabet:
            raise ValueError(
                "start symbols %r lack content models" % sorted(self.start - self.alphabet)
            )
        self._models: Dict[str, NFA] = {}
        self._sources: Dict[str, str] = {}
        for label, model in content.items():
            # Only a model passed as a Regex is rendered: str() recurses
            # through the AST, and a source text is kept as it was given.
            if isinstance(model, str):
                self._sources[label] = model
                nfa = parse_regex(model).to_nfa()
            elif isinstance(model, Regex):
                self._sources[label] = str(model)
                nfa = model.to_nfa()
            elif isinstance(model, NFA):
                self._sources[label] = "<nfa>"
                nfa = model
            else:
                raise TypeError("unsupported content model for %r: %r" % (label, model))
            unknown = {
                symbol
                for symbol in nfa.alphabet
                if symbol != TEXT and symbol not in self.alphabet
            }
            if unknown:
                raise ValueError(
                    "content model of %r uses undefined labels %r" % (label, sorted(unknown))
                )
            self._models[label] = nfa

    # -- introspection ---------------------------------------------------

    def content_model(self, label: str) -> NFA:
        """The content-model NFA ``d(label)``."""
        return self._models[label]

    def content_source(self, label: str) -> str:
        """A printable form of ``d(label)`` (the regex it was built from)."""
        return self._sources[label]

    @property
    def size(self) -> int:
        """Labels plus total content-model automaton size."""
        return len(self.alphabet) + sum(nfa.size for nfa in self._models.values())

    def __repr__(self) -> str:
        return "DTD(labels=%d, start=%r)" % (len(self.alphabet), sorted(self.start))

    # -- validation ---------------------------------------------------------

    def is_valid(self, t: Tree) -> bool:
        """Whether ``t`` satisfies this DTD."""
        if t.is_text or t.label not in self.start:
            return False
        return self._valid_below(t)

    def _valid_below(self, t: Tree) -> bool:
        if t.is_text:
            return True
        if t.label not in self.alphabet:
            return False
        word = tuple(TEXT if child.is_text else child.label for child in t.children)
        if not self._models[t.label].accepts(word):
            return False
        return all(self._valid_below(child) for child in t.children)

    def invalidity_reason(self, t: Tree) -> Optional[str]:
        """A human-readable reason why ``t`` is invalid, or ``None``."""
        if t.is_text:
            return "the root is a text node"
        if t.label not in self.start:
            return "root label %r is not a start symbol" % t.label
        return self._reason_below(t, (1,))

    def _reason_below(self, t: Tree, address: Tuple[int, ...]) -> Optional[str]:
        if t.is_text:
            return None
        if t.label not in self.alphabet:
            return "label %r at %r has no content model" % (t.label, address)
        word = tuple(TEXT if child.is_text else child.label for child in t.children)
        if not self._models[t.label].accepts(word):
            return "children %r of %r at %r violate %s" % (
                " ".join(word),
                t.label,
                address,
                self.content_source(t.label),
            )
        for j, child in enumerate(t.children, start=1):
            reason = self._reason_below(child, address + (j,))
            if reason is not None:
                return reason
        return None

    # -- reduction ----------------------------------------------------------

    def productive_labels(self) -> FrozenSet[str]:
        """Labels ``sigma`` admitting some valid tree rooted at
        ``sigma`` (ignoring the start condition); polynomial fixpoint."""
        productive: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for label, nfa in self._models.items():
                if label in productive:
                    continue
                if nfa.accepts_some_over(productive | {TEXT}):
                    productive.add(label)
                    changed = True
        return frozenset(productive)

    def reachable_labels(self) -> FrozenSet[str]:
        """Labels occurring in some valid tree (reachable from a start
        symbol through productive content)."""
        productive = self.productive_labels()
        seen: Set[str] = set(self.start & productive)
        stack = list(seen)
        while stack:
            label = stack.pop()
            nfa = self._models[label]
            # Labels on accepting paths restricted to productive symbols.
            trimmed_symbols = _useful_symbols(nfa, productive | {TEXT})
            for symbol in trimmed_symbols:
                if symbol != TEXT and symbol not in seen:
                    seen.add(symbol)
                    stack.append(symbol)
        return frozenset(seen)

    def is_reduced(self) -> bool:
        """Whether every defined label occurs in some valid tree
        (deciding this is PTIME-complete; the test itself is a fixpoint)."""
        return self.reachable_labels() == self.alphabet

    def reduce(self) -> "DTD":
        """An equivalent reduced DTD (drop labels that occur in no
        valid tree and restrict content models accordingly)."""
        useful = self.reachable_labels()
        content: Dict[str, NFA] = {}
        for label in useful:
            restricted = _restrict_nfa(self._models[label], useful | {TEXT})
            content[label] = restricted
        reduced = DTD.__new__(DTD)
        reduced.alphabet = frozenset(useful)
        reduced.start = self.start & useful
        reduced._models = content
        reduced._sources = {label: self._sources[label] for label in useful}
        return reduced


def _useful_symbols(nfa: NFA, allowed: Set[str]) -> Set[str]:
    restricted = _restrict_nfa(nfa, allowed).trim()
    from ..strings.nfa import EPSILON

    return {a for (_s, a, _t) in restricted.transitions() if a is not EPSILON}


def _restrict_nfa(nfa: NFA, allowed: Set[str]) -> NFA:
    from ..strings.nfa import EPSILON

    transitions = [
        (s, a, t) for (s, a, t) in nfa.transitions() if a is EPSILON or a in allowed
    ]
    return NFA(nfa.states, set(nfa.alphabet) & allowed, transitions, nfa.initial, nfa.finals)


def dtd_to_nta(dtd: DTD) -> NTA:
    """The standard linear translation of a DTD into an NTA.

    One state per label plus a text state and a fresh root state; the
    horizontal language of ``q_sigma`` is the content model with each
    label replaced by its state.
    """
    state_of: Dict[str, str] = {label: "q_%s" % label for label in dtd.alphabet}
    q_text = "q__text"
    q_root = "q__root"
    mapping = {label: state for label, state in state_of.items()}
    mapping[TEXT] = q_text

    delta: Dict[Tuple[str, str], NFA] = {}
    for label in dtd.alphabet:
        delta[(state_of[label], label)] = dtd.content_model(label).map_symbols(mapping)
    delta[(q_text, TEXT)] = parse_regex("eps").to_nfa()
    for label in dtd.start:
        delta[(q_root, label)] = delta[(state_of[label], label)]

    states = set(state_of.values()) | {q_text, q_root}
    return NTA(states, dtd.alphabet, delta, q_root)
