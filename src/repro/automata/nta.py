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

The module provides membership (with run extraction), emptiness (with
the least witness in a fixed tree order), intersection, union, and
trimming — all in polynomial time, as the Section 4.3 results require.
Complementation is exponential and lives in :mod:`repro.automata.fcns`
via the binary encoding.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
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
        """The least tree of ``L(N)``, or ``None`` when empty.

        Trees are ordered by size, then label, then ``is_text``, then
        their children left to right under the same order; text nodes
        carry the placeholder value ``"txt"``.  The least tree depends
        on the language alone, not on how ``delta`` was built or
        iterated.  One generalized-Dijkstra pass finds it
        (:func:`_least_trees`, DESIGN.md A9).
        """
        least = _least_trees(self, self.initial)
        if self.initial not in least.sizes:
            return None
        return least.tree(self.initial)

    # -- reduction ---------------------------------------------------------------

    def useful_child_states(self, state: State, symbol: str) -> Set[State]:
        """The possible child states of a ``symbol`` node in ``state``
        inside a completable tree: the states occurring in some word of
        ``delta(state, symbol)`` over inhabited states."""
        horizontal = self.delta.get((state, symbol))
        if horizontal is None:
            return set()
        trimmed = _restrict_alphabet(horizontal, self.inhabited_states()).trim()
        return {child for (_s, child, _t) in trimmed.transitions() if child is not EPSILON}

    def reachable_states(self) -> FrozenSet[State]:
        """States reachable top-down from the initial state (through
        trimmed horizontal automata restricted to inhabited states)."""
        seen: Set[State] = {self.initial}
        stack = [self.initial]
        while stack:
            state = stack.pop()
            for source, symbol in self.delta:
                if source != state:
                    continue
                for target in self.useful_child_states(source, symbol):
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


def _restrict_alphabet(nfa: NFA, allowed: AbstractSet[State]) -> NFA:
    transitions = [
        (s, a, t)
        for (s, a, t) in nfa.transitions()
        if a is EPSILON or a in allowed
    ]
    return NFA(nfa.states, set(nfa.alphabet) & set(allowed), transitions, nfa.initial, nfa.finals)


# -- least trees ----------------------------------------------------------------

#: The ``goal`` of a pass that settles every inhabited state.
_EVERY_STATE: Any = object()


class _LeastTrees:
    """What :func:`_least_trees` settled: per state, the size of its
    least tree and that tree's root as ``(label, is_text, child
    states)``."""

    __slots__ = ("sizes", "roots")

    def __init__(self) -> None:
        self.sizes: Dict[State, int] = {}
        self.roots: Dict[State, Tuple[str, bool, Tuple[State, ...]]] = {}

    def tree(self, state: State) -> Tree:
        """The least tree of a settled state, built bottom-up (no
        recursion, however deep the tree)."""
        built: Dict[State, Tree] = {}
        stack = [state]
        while stack:
            current = stack[-1]
            if current in built:
                stack.pop()
                continue
            label, is_text, children = self.roots[current]
            missing = [child for child in children if child not in built]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            built[current] = Tree(label, [built[child] for child in children], is_text=is_text)
        return built[state]


def _least_trees(nta: NTA, goal: State = _EVERY_STATE) -> _LeastTrees:
    """Settle the states of ``nta`` in increasing order of their least
    trees (the order of :meth:`NTA.witness`), and stop once ``goal`` has
    settled; by default, once every inhabited state has.

    A generalized Dijkstra pass (Knuth 1977) over two kinds of node:
    tree states, and horizontal configurations ``(structure, NFA
    state)``.  The key of a configuration is the least child word that
    reaches it, by total size and then by the ranks of its symbols left
    to right.  Every edge adds at least one node, so the pass runs level
    by level of size: at level ``n``, first the states whose least tree
    has ``n`` nodes settle, from the accepting configurations of level
    ``n - 1``; then the configurations of level ``n``.  A state's rank
    is its place in the tree order among the states settled so far, and
    equal trees share a rank, so comparing ranks compares trees.

    :meth:`~repro.strings.nfa.NFA.with_finals` siblings share one
    structure, keyed on the epsilon-free horizontals this pass holds
    until it returns; each ``(state, symbol)`` entry reads only its own
    final states, as its configurations settle.  A settled
    configuration keeps one back-pointer (its predecessor and the child
    state read); a word is spelled out only for a settled state's
    children or to break a tie.
    """
    result = _LeastTrees()
    sizes, roots = result.sizes, result.roots
    rank: Dict[State, int] = {}
    # Per structure, by index: its epsilon-free horizontal, its settled
    # configurations as ``config -> (size, predecessor, child state)``,
    # and its ``delta`` entries with their own final states.
    horizontals: List[NFA] = []
    reached: List[Dict[State, Tuple[int, State, State]]] = []
    accepting: List[List[Tuple[Tuple[State, str], AbstractSet[State]]]] = []
    structure_of: Dict[Hashable, int] = {}
    # Settled configurations with a move on a state not settled yet.
    waiting: Dict[State, List[Tuple[int, State, AbstractSet[State]]]] = {}
    # Size -> (tree candidates, configuration candidates); a heap of sizes.
    pending: Dict[int, Tuple[List[Any], List[Any]]] = {}
    levels: List[int] = []

    def level(size: int) -> Tuple[List[Any], List[Any]]:
        found = pending.get(size)
        if found is None:
            found = pending[size] = ([], [])
            heapq.heappush(levels, size)
        return found

    def settle(x: int, config: State, size: int, previous: State, child: State) -> None:
        """Record a configuration's least word and offer what it
        enables: trees for the entries it accepts, longer words."""
        known = reached[x]
        known[config] = (size, previous, child)
        for entry, finals in accepting[x]:
            if config in finals and entry[0] not in sizes:
                level(size + 1)[0].append((entry, x, config))
        for symbol, targets in horizontals[x].moves(config):
            child_size = sizes.get(symbol)
            if child_size is None:
                waiting.setdefault(symbol, []).append((x, config, targets))
                continue
            found = level(size + child_size)[1]
            for target in targets:
                if target not in known:
                    found.append((x, target, config, symbol))

    def word(x: int, config: State) -> Tuple[State, ...]:
        """The least word reaching a settled configuration."""
        known = reached[x]
        size, config, child = known[config]
        symbols = []
        while size:
            symbols.append(child)
            size, config, child = known[config]
        symbols.reverse()
        return tuple(symbols)

    def ranks(x: int, config: State, last: Tuple[int, ...] = ()) -> Tuple[int, ...]:
        return tuple([rank[child] for child in word(x, config)]) + last

    for entry, horizontal in nta.delta.items():
        if entry[1] == TEXT:
            if horizontal.accepts_empty_word():
                level(1)[0].append((entry, -1, None))
            continue
        free = horizontal.without_epsilon()
        key = free.structure_key()
        x = structure_of.get(key)
        if x is None:
            x = structure_of[key] = len(horizontals)
            horizontals.append(free)
            reached.append({})
            accepting.append([])
        accepting[x].append((entry, free.finals))
    for x, horizontal in enumerate(horizontals):
        settle(x, horizontal.initial, 0, None, None)

    next_rank = 0
    while levels:
        size = heapq.heappop(levels)
        trees, configs = pending[size]
        # The states whose least tree has ``size`` nodes.  Two candidates
        # with one root label come from one entry: only words can tie.
        chosen: Dict[State, Tuple[Any, ...]] = {}
        for candidate in trees:
            state = candidate[0][0]
            if state in sizes:
                continue
            current = chosen.get(state)
            if current is not None:
                label, held = _root_label(candidate[0][1]), _root_label(current[0][1])
                if label != held:
                    if label > held:
                        continue
                elif ranks(*candidate[1:]) >= ranks(*current[1:]):
                    continue
            chosen[state] = candidate
        settled = []
        for state, ((_state, symbol), x, config) in chosen.items():
            label, is_text = _root_label(symbol)
            children = () if x < 0 else word(x, config)
            sizes[state] = size
            roots[state] = (label, is_text, children)
            if state == goal:
                return result
            settled.append(((label, is_text, tuple([rank[c] for c in children])), state))
        settled.sort(key=itemgetter(0))
        last_key = None
        for tree_key, state in settled:
            if tree_key != last_key:
                next_rank += 1
                last_key = tree_key
            rank[state] = next_rank
        for _key, state in settled:
            for x, config, targets in waiting.pop(state, ()):
                known = reached[x]
                found = level(known[config][0] + size)[1]
                for target in targets:
                    if target not in known:
                        found.append((x, target, config, state))
        del pending[size]
        # The configurations whose least word has total size ``size``:
        # none of them extends another, so each takes its least
        # candidate and they settle together.
        best: Dict[Tuple[int, State], List[Any]] = {}
        for candidate in configs:
            x, target = candidate[0], candidate[1]
            if target in reached[x]:
                continue
            slot = best.get((x, target))
            if slot is None:
                best[(x, target)] = [candidate, None]
                continue
            if slot[1] is None:
                held = slot[0]
                slot[1] = ranks(x, held[2], (rank[held[3]],))
            spelled = ranks(x, candidate[2], (rank[candidate[3]],))
            if spelled < slot[1]:
                slot[0], slot[1] = candidate, spelled
        for (x, target), ((_x, _target, config, child), _spelled) in best.items():
            settle(x, target, size, config, child)
    return result


def _root_label(symbol: str) -> Tuple[str, bool]:
    """The ``(label, is_text)`` of the root a ``delta`` symbol gives."""
    return ("txt", True) if symbol == TEXT else (symbol, False)


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
