"""Nondeterministic finite string automata (paper, Section 2).

States and symbols are arbitrary hashable Python objects; this matters
because the horizontal languages of unranked tree automata are NFAs
whose *alphabet is the tree automaton's state set*.

Epsilon moves are supported internally (symbol :data:`EPSILON`) because
Thompson's construction produces them; :meth:`NFA.without_epsilon`
removes them.  All product-style constructions require epsilon-free
inputs and say so.
"""

from __future__ import annotations

import itertools
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "NFA",
    "EPSILON",
    "product_nfa",
    "pair_nfa",
    "union_nfa",
    "concat_nfa",
    "star_nfa",
    "literal_nfa",
]

State = Hashable
Symbol = Hashable

#: The epsilon pseudo-symbol.  Never use ``None`` as a real symbol.
EPSILON: Symbol = None


class NFA:
    """A nondeterministic finite automaton.

    Parameters
    ----------
    states:
        Iterable of states.
    alphabet:
        Iterable of symbols.  May be extended implicitly by
        transitions; kept explicit because several constructions (e.g.
        completion) need to know the full alphabet.
    transitions:
        Iterable of ``(source, symbol, target)`` triples.  ``symbol``
        may be :data:`EPSILON`.
    initial:
        The initial state (the paper's NFAs have a single one).
    finals:
        Iterable of accepting states.

    ``has_epsilon`` records whether any transition is an epsilon move;
    it is fixed at construction, like the transition map itself.
    """

    __slots__ = ("states", "alphabet", "initial", "finals", "has_epsilon", "_delta")

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Iterable[Tuple[State, Symbol, State]],
        initial: State,
        finals: Iterable[State],
    ) -> None:
        alpha: Set[Symbol] = set(alphabet)
        delta: Dict[State, Dict[Symbol, Set[State]]] = {}
        has_epsilon = False
        for source, symbol, target in transitions:
            delta.setdefault(source, {}).setdefault(symbol, set()).add(target)
            if symbol is EPSILON:
                has_epsilon = True
            else:
                alpha.add(symbol)
        self._install(states, alpha, delta, initial, finals, has_epsilon)

    def _install(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        delta: Dict[State, Dict[Symbol, Set[State]]],
        initial: State,
        finals: Iterable[State],
        has_epsilon: bool,
    ) -> None:
        """Adopt a grouped transition map ``source -> symbol -> targets``
        and validate it: the checks every construction runs, whether it
        starts from triples (``__init__``) or builds the map itself
        (:func:`pair_nfa`)."""
        self.states: FrozenSet[State] = frozenset(states)
        self.initial: State = initial
        self.finals: FrozenSet[State] = frozenset(finals)
        self.alphabet: FrozenSet[Symbol] = frozenset(alphabet)
        self.has_epsilon: bool = has_epsilon
        self._delta = delta
        if self.initial not in self.states:
            raise ValueError("initial state %r not among states" % (self.initial,))
        missing = self.finals - self.states
        if missing:
            raise ValueError("final states not among states: %r" % (missing,))
        for source, by_symbol in delta.items():
            if source not in self.states:
                raise ValueError("transition from unknown state %r" % (source,))
            for targets in by_symbol.values():
                unknown = targets - self.states
                if unknown:
                    raise ValueError("transition to unknown states %r" % (unknown,))

    # -- introspection ---------------------------------------------------

    def transitions(self) -> Iterator[Tuple[State, Symbol, State]]:
        """Yield all transition triples (including epsilon moves)."""
        for source, by_symbol in self._delta.items():
            for symbol, targets in by_symbol.items():
                for target in targets:
                    yield (source, symbol, target)

    def step(self, state: State, symbol: Symbol) -> FrozenSet[State]:
        """The set ``delta(state, symbol)`` (no epsilon closure)."""
        return frozenset(self._delta.get(state, {}).get(symbol, ()))

    def symbols_from(self, state: State) -> Iterator[Symbol]:
        """Yield the non-epsilon symbols with an outgoing edge at ``state``."""
        for symbol in self._delta.get(state, {}):
            if symbol is not EPSILON:
                yield symbol

    @property
    def size(self) -> int:
        """The paper's ``|A|``: number of states plus transitions."""
        return len(self.states) + sum(1 for _ in self.transitions())

    def structure_key(self) -> Tuple[int, State]:
        """A key equal for the automata that share this one's transition
        map and initial state: its :meth:`with_finals` siblings, which
        differ from it at most in their final states.

        The key holds the identity of the shared transition map, so it
        means something only while an automaton holding that map stays
        alive; key on automata kept referenced, never on temporaries.
        """
        return (id(self._delta), self.initial)

    def __repr__(self) -> str:
        return "NFA(states=%d, transitions=%d, alphabet=%d)" % (
            len(self.states),
            sum(1 for _ in self.transitions()),
            len(self.alphabet),
        )

    # -- epsilon handling --------------------------------------------------

    def epsilon_closure(self, states: Iterable[State]) -> FrozenSet[State]:
        """All states reachable from ``states`` via epsilon moves."""
        seen: Set[State] = set(states)
        stack = list(seen)
        while stack:
            state = stack.pop()
            for target in self._delta.get(state, {}).get(EPSILON, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def without_epsilon(self) -> "NFA":
        """An equivalent epsilon-free NFA (standard closure construction)."""
        if not self.has_epsilon:
            return self
        transitions: List[Tuple[State, Symbol, State]] = []
        finals: Set[State] = set()
        for state in self.states:
            closure = self.epsilon_closure([state])
            if closure & self.finals:
                finals.add(state)
            for mid in closure:
                for symbol in self.symbols_from(mid):
                    for target in self.step(mid, symbol):
                        transitions.append((state, symbol, target))
        return NFA(self.states, self.alphabet, transitions, self.initial, finals)

    # -- runs ---------------------------------------------------------------

    def run(self, word: Sequence[Symbol]) -> FrozenSet[State]:
        """The set of states reachable on ``word`` from the initial state."""
        current = self.epsilon_closure([self.initial])
        for symbol in word:
            nxt: Set[State] = set()
            for state in current:
                nxt |= self.step(state, symbol)
            current = self.epsilon_closure(nxt)
            if not current:
                break
        return frozenset(current)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Whether the automaton accepts ``word``."""
        return bool(self.run(word) & self.finals)

    # -- reachability / emptiness -------------------------------------------

    def reachable_states(
        self, allowed_symbols: Optional[AbstractSet[Symbol]] = None
    ) -> FrozenSet[State]:
        """States reachable from the initial state.

        With ``allowed_symbols`` given, only edges labelled by those
        symbols (plus epsilon) are followed — this is the primitive
        behind tree-automaton emptiness ("does some word over the
        inhabited states get accepted?").
        """
        seen: Set[State] = {self.initial}
        stack = [self.initial]
        while stack:
            state = stack.pop()
            for symbol, targets in self._delta.get(state, {}).items():
                if (
                    symbol is not EPSILON
                    and allowed_symbols is not None
                    and symbol not in allowed_symbols
                ):
                    continue
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return frozenset(seen)

    def is_empty(self) -> bool:
        """Whether ``L(A)`` is empty."""
        return not (self.reachable_states() & self.finals)

    def accepts_some_over(self, symbols: AbstractSet[Symbol]) -> bool:
        """Whether some word using only ``symbols`` is accepted."""
        return bool(self.reachable_states(symbols) & self.finals)

    def accepts_empty_word(self) -> bool:
        """Whether the empty word is accepted."""
        return bool(self.epsilon_closure([self.initial]) & self.finals)

    def shortest_word(
        self, allowed_symbols: Optional[AbstractSet[Symbol]] = None
    ) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word (over ``allowed_symbols`` if given),
        or ``None`` when the (restricted) language is empty.

        Used to extract concrete counter-example paths from the
        decision procedures.
        """
        # BFS over epsilon-closed state sets would be exponential; BFS over
        # single states with epsilon closure on expansion is enough for a
        # witness since acceptance is existential.
        start_states = self.epsilon_closure([self.initial])
        queue: List[Tuple[State, Tuple[Symbol, ...]]] = [(s, ()) for s in start_states]
        seen: Set[State] = set(start_states)
        index = 0
        while index < len(queue):
            state, word = queue[index]
            index += 1
            if state in self.finals:
                return word
            for symbol in self.symbols_from(state):
                if allowed_symbols is not None and symbol not in allowed_symbols:
                    continue
                for target in self.step(state, symbol):
                    for closed in self.epsilon_closure([target]):
                        if closed not in seen:
                            seen.add(closed)
                            queue.append((closed, word + (symbol,)))
        return None

    def accepts_product(self, symbol_sets: Sequence[AbstractSet[Symbol]]) -> bool:
        """Whether some word ``w`` with ``w[i] in symbol_sets[i]`` is accepted.

        This is the membership primitive of unranked tree automata: the
        child sequence offers a *set* of possible states per position.
        """
        current = self.epsilon_closure([self.initial])
        for options in symbol_sets:
            nxt: Set[State] = set()
            for state in current:
                for symbol in self.symbols_from(state):
                    if symbol in options:
                        nxt |= self.step(state, symbol)
            current = self.epsilon_closure(nxt)
            if not current:
                return False
        return bool(current & self.finals)

    def product_run_sets(
        self, symbol_sets: Sequence[AbstractSet[Symbol]]
    ) -> List[FrozenSet[State]]:
        """The successive reachable-state sets along a product word.

        Entry ``i`` is the state set after reading positions ``< i``;
        there are ``len(symbol_sets) + 1`` entries.
        """
        current = self.epsilon_closure([self.initial])
        out: List[FrozenSet[State]] = [frozenset(current)]
        for options in symbol_sets:
            nxt: Set[State] = set()
            for state in current:
                for symbol in self.symbols_from(state):
                    if symbol in options:
                        nxt |= self.step(state, symbol)
            current = self.epsilon_closure(nxt)
            out.append(frozenset(current))
        return out

    def with_finals(self, finals: Iterable[State]) -> "NFA":
        """A copy of this NFA with different final states (O(1): shares
        the transition structure, like :meth:`with_initial`)."""
        finals = frozenset(finals)
        if not finals <= self.states:
            raise ValueError("final states must be states")
        clone = object.__new__(NFA)
        clone.states = self.states
        clone.alphabet = self.alphabet
        clone.initial = self.initial
        clone.finals = finals
        clone.has_epsilon = self.has_epsilon
        clone._delta = self._delta
        return clone

    def with_initial(self, initial: State) -> "NFA":
        """A copy of this NFA with a different initial state.

        Shares the (immutable-after-construction) transition structure,
        so it is O(1); used when many automata differ only in their
        start state.
        """
        if initial not in self.states:
            raise ValueError("initial state %r not among states" % (initial,))
        clone = object.__new__(NFA)
        clone.states = self.states
        clone.alphabet = self.alphabet
        clone.initial = initial
        clone.finals = self.finals
        clone.has_epsilon = self.has_epsilon
        clone._delta = self._delta
        return clone

    # -- transformations -----------------------------------------------------

    def trim(self) -> "NFA":
        """Restrict to states both reachable and co-reachable.

        The initial state is always kept so the result is well-formed
        even when the language is empty.
        """
        reachable = self.reachable_states()
        co: Set[State] = set(self.finals)
        # Backward reachability.
        incoming: Dict[State, Set[State]] = {}
        for source, _symbol, target in self.transitions():
            incoming.setdefault(target, set()).add(source)
        stack = list(co)
        while stack:
            state = stack.pop()
            for source in incoming.get(state, ()):
                if source not in co:
                    co.add(source)
                    stack.append(source)
        useful = (reachable & co) | {self.initial}
        transitions = [
            (s, a, t) for (s, a, t) in self.transitions() if s in useful and t in useful
        ]
        return NFA(useful, self.alphabet, transitions, self.initial, self.finals & useful)

    def map_symbols(self, mapping: Dict[Symbol, Symbol]) -> "NFA":
        """Relabel symbols; unmapped symbols are kept as-is."""
        transitions = [
            (s, mapping.get(a, a) if a is not EPSILON else EPSILON, t)
            for (s, a, t) in self.transitions()
        ]
        alphabet = {mapping.get(a, a) for a in self.alphabet}
        return NFA(self.states, alphabet, transitions, self.initial, self.finals)

    def rename_states(self, prefix: str) -> "NFA":
        """Return an isomorphic NFA with states ``(prefix, i)`` — used to
        make state sets disjoint before unions/concatenations."""
        names = {state: (prefix, i) for i, state in enumerate(sorted(self.states, key=repr))}
        transitions = [(names[s], a, names[t]) for (s, a, t) in self.transitions()]
        return NFA(
            names.values(),
            self.alphabet,
            transitions,
            names[self.initial],
            {names[f] for f in self.finals},
        )

    def reverse(self) -> "NFA":
        """An NFA for the reversal of the language (fresh initial state
        with epsilon moves into the old finals)."""
        fresh = ("rev-init", object())
        transitions: List[Tuple[State, Symbol, State]] = [
            (t, a, s) for (s, a, t) in self.transitions()
        ]
        transitions += [(fresh, EPSILON, f) for f in self.finals]
        return NFA(
            set(self.states) | {fresh},
            self.alphabet,
            transitions,
            fresh,
            {self.initial},
        )

    # -- language tests --------------------------------------------------------

    def is_universal_over(self, alphabet: AbstractSet[Symbol]) -> bool:
        """Whether the automaton accepts *every* word over ``alphabet``.

        Implemented by determinization (see :mod:`repro.strings.dfa`);
        exponential in the worst case, used only on small automata.
        """
        from .dfa import determinize

        dfa = determinize(self.without_epsilon(), alphabet=frozenset(alphabet))
        return dfa.complement().is_empty()

    def equivalent_to(self, other: "NFA") -> bool:
        """Language equivalence over the union of the two alphabets."""
        from .dfa import determinize

        alphabet = frozenset(self.alphabet | other.alphabet)
        d1 = determinize(self.without_epsilon(), alphabet=alphabet)
        d2 = determinize(other.without_epsilon(), alphabet=alphabet)
        return d1.symmetric_difference(d2).is_empty()


# -- combinators ------------------------------------------------------------


def literal_nfa(word: Sequence[Symbol], alphabet: Iterable[Symbol] = ()) -> NFA:
    """An NFA accepting exactly the single word ``word``."""
    states = list(range(len(word) + 1))
    transitions = [(i, symbol, i + 1) for i, symbol in enumerate(word)]
    return NFA(states, set(alphabet) | set(word), transitions, 0, {len(word)})


def product_nfa(left: NFA, right: NFA) -> NFA:
    """Intersection product of two epsilon-free NFAs."""
    left = left.without_epsilon()
    right = right.without_epsilon()
    initial = (left.initial, right.initial)
    states: Set[Tuple[State, State]] = {initial}
    transitions: List[Tuple[State, Symbol, State]] = []
    stack = [initial]
    while stack:
        l_state, r_state = stack.pop()
        for symbol in left.symbols_from(l_state):
            r_targets = right.step(r_state, symbol)
            if not r_targets:
                continue
            for l_target in left.step(l_state, symbol):
                for r_target in r_targets:
                    pair = (l_target, r_target)
                    transitions.append(((l_state, r_state), symbol, pair))
                    if pair not in states:
                        states.add(pair)
                        stack.append(pair)
    finals = {
        (l, r) for (l, r) in states if l in left.finals and r in right.finals
    }
    return NFA(states, left.alphabet | right.alphabet, transitions, initial, finals)


def pair_nfa(left: NFA, right: NFA) -> NFA:
    """Product of two epsilon-free NFAs reading *pairs* of symbols: the
    word ``(a1,b1)...(an,bn)`` is accepted iff ``a1..an`` is in
    ``L(left)`` and ``b1..bn`` is in ``L(right)``.

    These are the horizontal languages of an NTA intersection.  The
    product's transition map is built in place, visiting targets in
    :meth:`NFA.step` order, so it equals the map built from the list of
    transition triples, transition order included.  Each pair state,
    pair symbol and one-target set is made once and shared by the
    transitions that use it (a transition map is never mutated once
    built): on big products, allocating them per transition, and the
    garbage collections those allocations trigger, cost more than the
    search itself.
    """
    if left.has_epsilon or right.has_epsilon:
        raise ValueError("pair_nfa needs epsilon-free automata")
    left_moves = _moves_by_state(left)
    right_moves = _moves_by_state(right)
    initial = (left.initial, right.initial)
    states: Set[State] = {initial}
    singles: Dict[State, Set[State]] = {initial: {initial}}
    symbols: Dict[Tuple[Symbol, Symbol], Tuple[Symbol, Symbol]] = {}
    stack = [initial]

    def visit(l_target: State, r_target: State) -> Set[State]:
        """The one-element set of a pair state, queued when new."""
        pair = (l_target, r_target)
        single = singles.get(pair)
        if single is None:
            single = singles[pair] = {pair}
            states.add(pair)
            stack.append(pair)
        return single

    delta: Dict[State, Dict[Symbol, Set[State]]] = {}
    while stack:
        source = stack.pop()
        r_moves = right_moves(source[1])
        by_symbol: Dict[Symbol, Set[State]] = {}
        for l_symbol, l_targets in left_moves(source[0]):
            for r_symbol, r_targets in r_moves:
                symbol = (l_symbol, r_symbol)
                symbol = symbols.setdefault(symbol, symbol)
                if len(l_targets) == 1 == len(r_targets):
                    by_symbol[symbol] = visit(l_targets[0], r_targets[0])
                else:
                    # One add per target, as the constructor does: a
                    # set grown another way can iterate in another order.
                    targets: Set[State] = set()
                    by_symbol[symbol] = targets
                    for l_target in l_targets:
                        for r_target in r_targets:
                            visit(l_target, r_target)
                            targets.add((l_target, r_target))
        if by_symbol:
            delta[source] = by_symbol
    finals = {(l, r) for (l, r) in states if l in left.finals and r in right.finals}
    product = object.__new__(NFA)
    product._install(
        states,
        itertools.product(left.alphabet, right.alphabet),
        delta,
        initial,
        finals,
        False,
    )
    return product


def _moves_by_state(nfa: NFA) -> Callable[[State], List[Tuple[Symbol, Tuple[State, ...]]]]:
    """A lookup of ``(symbol, targets)`` per state, targets in
    :meth:`NFA.step` order, each computed once; :func:`pair_nfa` visits
    a state once per partner state."""
    memo: Dict[State, List[Tuple[Symbol, Tuple[State, ...]]]] = {}

    def moves(state: State) -> List[Tuple[Symbol, Tuple[State, ...]]]:
        found = memo.get(state)
        if found is None:
            found = memo[state] = [
                (symbol, tuple(nfa.step(state, symbol))) for symbol in nfa._delta.get(state, ())
            ]
        return found

    return moves


def union_nfa(left: NFA, right: NFA) -> NFA:
    """Union of two NFAs (fresh initial state, epsilon branches).

    Two :meth:`NFA.with_finals` siblings need no renaming: their union
    is the shared structure with both final sets, built in O(finals).
    """
    if left.structure_key() == right.structure_key():
        return left.with_finals(left.finals | right.finals)
    left = left.rename_states("L")
    right = right.rename_states("R")
    fresh = ("U", 0)
    transitions = list(left.transitions()) + list(right.transitions())
    transitions += [(fresh, EPSILON, left.initial), (fresh, EPSILON, right.initial)]
    return NFA(
        set(left.states) | set(right.states) | {fresh},
        left.alphabet | right.alphabet,
        transitions,
        fresh,
        set(left.finals) | set(right.finals),
    )


def concat_nfa(left: NFA, right: NFA) -> NFA:
    """Concatenation ``L(left) . L(right)``."""
    left = left.rename_states("L")
    right = right.rename_states("R")
    transitions = list(left.transitions()) + list(right.transitions())
    transitions += [(f, EPSILON, right.initial) for f in left.finals]
    return NFA(
        set(left.states) | set(right.states),
        left.alphabet | right.alphabet,
        transitions,
        left.initial,
        right.finals,
    )


def star_nfa(inner: NFA) -> NFA:
    """Kleene star ``L(inner)*``."""
    inner = inner.rename_states("S")
    fresh = ("*", 0)
    transitions = list(inner.transitions())
    transitions.append((fresh, EPSILON, inner.initial))
    transitions += [(f, EPSILON, fresh) for f in inner.finals]
    return NFA(
        set(inner.states) | {fresh},
        inner.alphabet,
        transitions,
        fresh,
        {fresh},
    )
