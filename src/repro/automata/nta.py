"""Nondeterministic unranked tree automata (paper, Section 2).

An NTA ``N = (Q, Sigma ⊎ {text}, delta, q0, F)`` assigns its initial
state to the root; a node labelled ``sigma`` with children assigned
``q1 .. qn`` requires ``q1 ... qn`` to be in the regular *horizontal
language* ``delta(q, sigma)``.  Text leaves use the placeholder symbol
:data:`TEXT`.  A run is accepting when every leaf's state admits the
empty child word.  (The paper's set ``F`` is derived: ``F = {q :
eps in delta(q, a) for some a}``.)

Horizontal languages are :class:`~repro.strings.nfa.NFA` objects whose
alphabet is ``Q`` itself.

The module provides membership (with run extraction), emptiness (with a
smallest-witness construction), intersection, union, and trimming — all
in polynomial time, as the Section 4.3 results require.  Complementation
is exponential and lives in :mod:`repro.automata.fcns` via the binary
encoding.
"""

from __future__ import annotations

import itertools
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import obs
from ..strings.nfa import EPSILON, NFA, pair_nfa, union_nfa
from ..trees.tree import Tree

__all__ = ["NTA", "TEXT", "Run", "intersect_nta", "union_nta"]

State = Hashable

#: The placeholder label for text nodes, as in the paper's ``Sigma ⊎ {text}``.
TEXT = "text"

#: A run: a map from node addresses to states.
Run = Dict[Tuple[int, ...], State]


def _label_key(t: Tree) -> str:
    return TEXT if t.is_text else t.label


class NTA:
    """A nondeterministic unranked tree automaton.

    Parameters
    ----------
    states:
        The finite state set ``Q``.
    alphabet:
        The element alphabet ``Sigma`` (must not contain ``"text"``).
    delta:
        Mapping ``(state, symbol) -> NFA`` over ``Q``, where ``symbol``
        is in ``Sigma`` or :data:`TEXT`.  Missing entries denote the
        empty horizontal language (the state does not allow that label).
    initial:
        The root state ``q0``.
    """

    __slots__ = ("states", "alphabet", "initial", "delta", "_inhabited_cache")

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[str],
        delta: Dict[Tuple[State, str], NFA],
        initial: State,
    ) -> None:
        self.states: FrozenSet[State] = frozenset(states)
        self.alphabet: FrozenSet[str] = frozenset(alphabet)
        if TEXT in self.alphabet:
            raise ValueError("the alphabet Sigma must not contain the placeholder %r" % TEXT)
        self.initial = initial
        self.delta: Dict[Tuple[State, str], NFA] = dict(delta)
        self._inhabited_cache: Optional[FrozenSet[State]] = None
        if initial not in self.states:
            raise ValueError("initial state %r not among states" % (initial,))
        for (state, symbol), horizontal in self.delta.items():
            if state not in self.states:
                raise ValueError("transition for unknown state %r" % (state,))
            if symbol != TEXT and symbol not in self.alphabet:
                raise ValueError("transition for unknown symbol %r" % (symbol,))
            if not isinstance(horizontal, NFA):
                raise TypeError("horizontal languages must be NFAs")
        if obs.enabled():
            obs.add("nta.created")
            obs.add("nta.states_created", len(self.states))
            obs.add("nta.rules_created", len(self.delta))

    # -- introspection -----------------------------------------------------

    @property
    def size(self) -> int:
        """The paper's ``|N| = |Q| + sum of horizontal automaton sizes``."""
        return len(self.states) + sum(nfa.size for nfa in self.delta.values())

    def __repr__(self) -> str:
        return "NTA(states=%d, alphabet=%d, rules=%d)" % (
            len(self.states),
            len(self.alphabet),
            len(self.delta),
        )

    def horizontal(self, state: State, symbol: str) -> Optional[NFA]:
        """The horizontal NFA ``delta(state, symbol)``, or ``None``."""
        return self.delta.get((state, symbol))

    def allows_empty(self, state: State, symbol: str) -> bool:
        """Whether ``eps in delta(state, symbol)`` — the leaf condition."""
        horizontal = self.delta.get((state, symbol))
        return horizontal is not None and horizontal.accepts_empty_word()

    def final_states(self) -> FrozenSet[State]:
        """The derived final-state set ``F`` of the paper: states that
        admit the empty child word for some label."""
        finals = set()
        for (state, _symbol), horizontal in self.delta.items():
            if horizontal.accepts_empty_word():
                finals.add(state)
        return frozenset(finals)

    # -- membership ----------------------------------------------------------

    def possible_states(self, t: Tree) -> FrozenSet[State]:
        """The set of states ``q`` such that the subtree ``t`` admits a
        run fragment with ``q`` at its root (bottom-up subset pass)."""
        child_sets = [self.possible_states(child) for child in t.children]
        label = _label_key(t)
        result: Set[State] = set()
        for state in self.states:
            horizontal = self.delta.get((state, label))
            if horizontal is None:
                continue
            if horizontal.accepts_product(child_sets):
                result.add(state)
        return frozenset(result)

    def accepts(self, t: Tree) -> bool:
        """Whether ``t`` is in ``L(N)``."""
        return self.initial in self.possible_states(t)

    def run_on(self, t: Tree) -> Optional[Run]:
        """An accepting run of the automaton on ``t`` (addresses to
        states), or ``None`` if ``t`` is rejected."""
        possible = self._possible_table(t, (1,), {})
        if self.initial not in possible[(1,)]:
            return None
        run: Run = {}
        self._extract_run(t, (1,), self.initial, possible, run)
        return run

    def _possible_table(
        self,
        t: Tree,
        address: Tuple[int, ...],
        table: Dict[Tuple[int, ...], FrozenSet[State]],
    ) -> Dict[Tuple[int, ...], FrozenSet[State]]:
        child_sets = []
        for j, child in enumerate(t.children, start=1):
            self._possible_table(child, address + (j,), table)
            child_sets.append(table[address + (j,)])
        label = _label_key(t)
        result: Set[State] = set()
        for state in self.states:
            horizontal = self.delta.get((state, label))
            if horizontal is not None and horizontal.accepts_product(child_sets):
                result.add(state)
        table[address] = frozenset(result)
        return table

    def _extract_run(
        self,
        t: Tree,
        address: Tuple[int, ...],
        state: State,
        possible: Dict[Tuple[int, ...], FrozenSet[State]],
        run: Run,
    ) -> None:
        run[address] = state
        horizontal = self.delta[(state, _label_key(t))]
        child_sets = [possible[address + (j,)] for j in range(1, len(t.children) + 1)]
        word = _choose_product_word(horizontal, child_sets)
        assert word is not None, "run extraction out of sync with membership"
        for j, child_state in enumerate(word, start=1):
            self._extract_run(t.children[j - 1], address + (j,), child_state, possible, run)

    # -- emptiness / witnesses --------------------------------------------------

    def inhabited_states(self) -> FrozenSet[State]:
        """States ``q`` for which some tree admits a run fragment rooted
        at ``q`` (the emptiness fixpoint)."""
        if self._inhabited_cache is not None:
            return self._inhabited_cache
        inhabited: Set[State] = set()
        changed = True
        while changed:
            changed = False
            for (state, _symbol), horizontal in self.delta.items():
                if state in inhabited:
                    continue
                if horizontal.accepts_some_over(inhabited):
                    inhabited.add(state)
                    changed = True
        self._inhabited_cache = frozenset(inhabited)
        return self._inhabited_cache

    def is_empty(self) -> bool:
        """Whether ``L(N)`` is empty."""
        return self.initial not in self.inhabited_states()

    def witness(self) -> Optional[Tree]:
        """A smallest tree in ``L(N)``, or ``None`` when empty.

        Smallest by node count, built by the standard dynamic program
        over the emptiness fixpoint.
        """
        best: Dict[State, Tree] = {}
        changed = True
        while changed:
            changed = False
            for (state, symbol), horizontal in self.delta.items():
                candidate = self._cheapest_tree(symbol, horizontal, best)
                if candidate is None:
                    continue
                current = best.get(state)
                if current is None or candidate.size < current.size:
                    best[state] = candidate
                    changed = True
        return best.get(self.initial)

    def _cheapest_tree(
        self, symbol: str, horizontal: NFA, best: Dict[State, Tree]
    ) -> Optional[Tree]:
        word = _cheapest_word(horizontal, {q: best[q].size for q in best})
        if word is None:
            return None
        if symbol == TEXT:
            if word:
                return None  # text nodes are leaves
            return Tree("txt", is_text=True)
        return Tree(symbol, [best[q] for q in word])

    # -- reduction ---------------------------------------------------------------

    def reachable_states(self) -> FrozenSet[State]:
        """States reachable top-down from the initial state (through
        trimmed horizontal automata restricted to inhabited states)."""
        inhabited = self.inhabited_states()
        seen: Set[State] = {self.initial}
        stack = [self.initial]
        while stack:
            state = stack.pop()
            for (source, _symbol), horizontal in self.delta.items():
                if source != state:
                    continue
                for target in _symbols_on_useful_paths(horizontal, inhabited):
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return frozenset(seen)

    def productive_states(self) -> FrozenSet[State]:
        """Synonym of :meth:`inhabited_states` under the schema-lint
        vocabulary: states that can complete a subtree."""
        return self.inhabited_states()

    def unproductive_states(self) -> FrozenSet[State]:
        """States no tree fragment can satisfy (dead weight; reported
        by the ``TP201`` lint diagnostic)."""
        return self.states - self.inhabited_states()

    def unreachable_states(self) -> FrozenSet[State]:
        """States never assigned in any accepting run (reported by the
        ``TP202`` lint diagnostic)."""
        return self.states - self.reachable_states()

    def generated_labels(self) -> FrozenSet[str]:
        """The labels of ``Sigma`` occurring in some tree of ``L(N)``.

        A label is generated iff some reachable-and-inhabited state
        pairs with it in ``delta`` via a horizontal word over inhabited
        states (so the node sits inside a completable accepted tree).
        """
        inhabited = self.inhabited_states()
        useful = self.reachable_states() & inhabited
        generated: Set[str] = set()
        for (state, symbol), horizontal in self.delta.items():
            if symbol == TEXT or state not in useful or symbol in generated:
                continue
            if horizontal.accepts_empty_word() or horizontal.accepts_some_over(inhabited):
                generated.add(symbol)
        return frozenset(generated)

    def trim(self) -> "NTA":
        """Restrict to states both reachable and inhabited.

        The initial state is always kept so the result is well-formed.
        """
        useful = (self.reachable_states() & self.inhabited_states()) | {self.initial}
        delta: Dict[Tuple[State, str], NFA] = {}
        for (state, symbol), horizontal in self.delta.items():
            if state not in useful:
                continue
            restricted = _restrict_alphabet(horizontal, useful)
            if restricted.is_empty() and not restricted.accepts_empty_word():
                continue
            delta[(state, symbol)] = restricted
        return NTA(useful, self.alphabet, delta, self.initial)

    def rename_states(self, prefix: str) -> "NTA":
        """An isomorphic copy with states ``(prefix, i)``."""
        names = {state: (prefix, i) for i, state in enumerate(sorted(self.states, key=repr))}
        delta: Dict[Tuple[State, str], NFA] = {}
        for (state, symbol), horizontal in self.delta.items():
            delta[(names[state], symbol)] = horizontal.map_symbols(names)
        return NTA(names.values(), self.alphabet, delta, names[self.initial])


# -- helpers on horizontal automata ----------------------------------------


def _choose_product_word(
    nfa: NFA, symbol_sets: Sequence[AbstractSet[State]]
) -> Optional[Tuple[State, ...]]:
    """A word ``w`` with ``w[i] in symbol_sets[i]`` accepted by ``nfa``,
    if any.

    A forward subset pass computes the reachable sets; a backward pass
    computes, per position, the states from which an accepting suffix
    exists; a final forward walk picks one concrete word.
    """
    forward = nfa.product_run_sets(symbol_sets)
    n = len(symbol_sets)
    backward: List[Set[State]] = [set() for _ in range(n + 1)]
    backward[n] = set(forward[n] & nfa.finals)
    if not backward[n]:
        return None
    for i in range(n - 1, -1, -1):
        for state in forward[i]:
            for symbol in nfa.symbols_from(state):
                if symbol not in symbol_sets[i]:
                    continue
                targets = nfa.epsilon_closure(nfa.step(state, symbol))
                if targets & backward[i + 1]:
                    backward[i].add(state)
                    break
    candidates = forward[0] & frozenset(backward[0])
    if not candidates:  # pragma: no cover - guarded by the forward pass
        return None
    state = next(iter(candidates))
    chosen: List[State] = []
    for i in range(n):
        advanced = False
        for symbol in nfa.symbols_from(state):
            if advanced:
                break
            if symbol not in symbol_sets[i]:
                continue
            targets = nfa.epsilon_closure(nfa.step(state, symbol))
            for target in targets:
                if target in backward[i + 1]:
                    chosen.append(symbol)
                    state = target
                    advanced = True
                    break
        assert advanced, "backward sets out of sync"
    return tuple(chosen)


def _cheapest_word(nfa: NFA, cost: Dict[State, int]) -> Optional[Tuple[State, ...]]:
    """A minimum-total-cost accepted word over the symbols in ``cost``.

    Dijkstra-like search where reading symbol ``q`` costs ``cost[q]``.
    Returns ``None`` when no accepted word uses only those symbols.
    """
    import heapq

    start = nfa.epsilon_closure([nfa.initial])
    heap: List[Tuple[int, int, State, Tuple[State, ...]]] = []
    counter = itertools.count()
    seen: Dict[State, int] = {}
    for state in start:
        heapq.heappush(heap, (0, next(counter), state, ()))
    while heap:
        total, _tiebreak, state, word = heapq.heappop(heap)
        if state in seen and seen[state] <= total:
            continue
        seen[state] = total
        if state in nfa.finals:
            return word
        for symbol in nfa.symbols_from(state):
            if symbol not in cost:
                continue
            for target in nfa.step(state, symbol):
                for closed in nfa.epsilon_closure([target]):
                    heapq.heappush(
                        heap,
                        (total + cost[symbol], next(counter), closed, word + (symbol,)),
                    )
    return None


def _symbols_on_useful_paths(nfa: NFA, allowed: AbstractSet[State]) -> Set[State]:
    """Symbols (tree-automaton states) appearing on some accepting path
    of ``nfa`` that uses only ``allowed`` symbols."""
    trimmed = _restrict_alphabet(nfa, allowed).trim()
    return {symbol for (_s, symbol, _t) in trimmed.transitions() if symbol is not EPSILON}


def _restrict_alphabet(nfa: NFA, allowed: AbstractSet[State]) -> NFA:
    transitions = [
        (s, a, t)
        for (s, a, t) in nfa.transitions()
        if a is EPSILON or a in allowed
    ]
    return NFA(nfa.states, set(nfa.alphabet) & set(allowed), transitions, nfa.initial, nfa.finals)


# -- boolean combinations -----------------------------------------------------


def intersect_nta(left: NTA, right: NTA) -> NTA:
    """Product NTA for ``L(left) ∩ L(right)`` (polynomial).

    Horizontal automata that are :meth:`~repro.strings.nfa.NFA.with_finals`
    siblings (the inverse types of :mod:`repro.core.typecheck` are
    built that way) pair to one shared product structure: a
    :func:`~repro.strings.nfa.pair_nfa` explored once per (left
    structure, right structure), from which each entry only picks its
    final states.
    """
    alphabet = left.alphabet | right.alphabet
    states = set(itertools.product(left.states, right.states))
    delta: Dict[Tuple[State, str], NFA] = {}
    # Both memos are keyed on horizontals the two NTAs keep alive for
    # the whole call, never on temporary epsilon-free forms.
    right_free: Dict[NFA, NFA] = {}
    paired: Dict[Tuple[Hashable, Hashable], NFA] = {}
    for (l_state, symbol), l_horizontal in left.delta.items():
        l_free = l_horizontal.without_epsilon()
        l_key = l_horizontal.structure_key()
        for r_state in right.states:
            r_horizontal = right.delta.get((r_state, symbol))
            if r_horizontal is None:
                continue
            r_free = right_free.get(r_horizontal)
            if r_free is None:
                r_free = right_free[r_horizontal] = r_horizontal.without_epsilon()
            key = (l_key, r_horizontal.structure_key())
            shared = paired.get(key)
            if shared is None:
                entry = paired[key] = pair_nfa(l_free, r_free)
            else:
                entry = shared.with_finals(_pair_finals(shared.states, l_free, r_free))
            delta[((l_state, r_state), symbol)] = entry
    if obs.enabled():
        obs.add("nta.intersections")
        obs.add("nta.intersection_states", len(states))
    return NTA(states, alphabet, delta, (left.initial, right.initial))


def _pair_finals(states: Iterable[Any], left: NFA, right: NFA) -> Set[Tuple[State, State]]:
    """The ``(l, r)`` pair states with ``l`` final in ``left`` and ``r``
    final in ``right``."""
    return {(l, r) for (l, r) in states if l in left.finals and r in right.finals}


def union_nta(left: NTA, right: NTA) -> NTA:
    """NTA for ``L(left) ∪ L(right)`` (fresh root state that offers both
    root horizontal languages)."""
    obs.add("nta.unions")
    left = left.rename_states("L")
    right = right.rename_states("R")
    fresh = ("U", 0)
    states = set(left.states) | set(right.states) | {fresh}
    alphabet = left.alphabet | right.alphabet
    delta: Dict[Tuple[State, str], NFA] = {}
    delta.update(left.delta)
    delta.update(right.delta)
    symbols = set(alphabet) | {TEXT}
    for symbol in symbols:
        l_horizontal = left.delta.get((left.initial, symbol))
        r_horizontal = right.delta.get((right.initial, symbol))
        if l_horizontal is not None and r_horizontal is not None:
            delta[(fresh, symbol)] = union_nfa(l_horizontal, r_horizontal)
        elif l_horizontal is not None:
            delta[(fresh, symbol)] = l_horizontal
        elif r_horizontal is not None:
            delta[(fresh, symbol)] = r_horizontal
    return NTA(states, alphabet, delta, fresh)
