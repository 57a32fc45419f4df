"""Enumerating and sampling members of a regular tree language.

The semantic oracle (:mod:`repro.core.oracle`) cross-validates the
paper's decision procedures against brute force: it needs *all* trees
of ``L(N)`` up to a size bound, and random members for property tests.
Both are implemented directly on the NTA.

Enumerated trees use the placeholder text value ``"txt"`` for every
text node; callers who need value-uniqueness apply
:func:`repro.trees.substitution.make_value_unique` (the languages are
closed under Text-substitutions, so this stays inside the language).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..strings.nfa import NFA
from ..trees.tree import Tree
from .nta import NTA, TEXT, _least_trees

__all__ = ["enumerate_trees", "sample_tree", "count_trees"]

State = Hashable


def enumerate_trees(nta: NTA, max_size: int, max_count: Optional[int] = None) -> Iterator[Tree]:
    """Yield every tree of ``L(nta)`` with at most ``max_size`` nodes.

    Trees are produced in nondecreasing size order without duplicates;
    ``max_count`` truncates the stream.  Exponential in ``max_size`` —
    meant for small bounds (oracles and tests).
    """
    produced = 0
    for size in range(1, max_size + 1):
        for t in _trees_of(nta, nta.initial, size, {}):
            yield t
            produced += 1
            if max_count is not None and produced >= max_count:
                return


def count_trees(nta: NTA, max_size: int) -> int:
    """The number of trees of ``L(nta)`` with at most ``max_size`` nodes."""
    return sum(1 for _ in enumerate_trees(nta, max_size))


def _trees_of(
    nta: NTA,
    state: State,
    size: int,
    memo: Dict[Tuple[State, int], Tuple[Tree, ...]],
) -> Tuple[Tree, ...]:
    """All trees of exactly ``size`` nodes admitting a run fragment
    rooted at ``state``."""
    key = (state, size)
    cached = memo.get(key)
    if cached is not None:
        return cached
    results: List[Tree] = []
    seen = set()
    for (source, symbol), horizontal in nta.delta.items():
        if source != state:
            continue
        if symbol == TEXT:
            if size == 1 and horizontal.accepts_empty_word():
                t = Tree("txt", is_text=True)
                if t not in seen:
                    seen.add(t)
                    results.append(t)
            continue
        for children in _hedges_of(nta, horizontal, size - 1, memo):
            t = Tree(symbol, children)
            if t not in seen:
                seen.add(t)
                results.append(t)
    out = tuple(results)
    memo[key] = out
    return out


def _hedges_of(
    nta: NTA,
    horizontal: NFA,
    size: int,
    memo: Dict[Tuple[State, int], Tuple[Tree, ...]],
) -> Iterator[Tuple[Tree, ...]]:
    """All hedges of exactly ``size`` total nodes whose root-state word
    is accepted by ``horizontal``."""
    horizontal = horizontal.without_epsilon()

    def expand(nfa_state: State, budget: int) -> Iterator[Tuple[Tree, ...]]:
        if budget == 0:
            if nfa_state in horizontal.finals:
                yield ()
            return
        for symbol in horizontal.symbols_from(nfa_state):
            for target in horizontal.step(nfa_state, symbol):
                for first_size in range(1, budget + 1):
                    for first in _trees_of(nta, symbol, first_size, memo):
                        for rest in expand(target, budget - first_size):
                            yield (first,) + rest

    yield from expand(horizontal.initial, size)


def sample_tree(
    nta: NTA,
    max_size: int = 40,
    rng: Optional[random.Random] = None,
    attempts: int = 200,
) -> Optional[Tree]:
    """A random member of ``L(nta)`` of size at most ``max_size``.

    Grows trees top-down, steering by the size of each state's least
    tree (the witness pass) so the walk cannot dead-end; returns
    ``None`` only when the language has no member within the size
    bound.
    """
    rng = rng or random.Random()
    least = _least_trees(nta)
    smallest = least.sizes
    if nta.initial not in smallest:
        return None
    for _ in range(attempts):
        t = _grow(nta, nta.initial, max_size, rng, smallest)
        if t is not None:
            return t
    # Fall back to the deterministic least tree (the witness).
    if smallest[nta.initial] <= max_size:
        return least.tree(nta.initial)
    return None


def _grow(
    nta: NTA,
    state: State,
    budget: int,
    rng: random.Random,
    smallest: Dict[State, int],
) -> Optional[Tree]:
    if budget < smallest.get(state, budget + 1):
        return None
    options = [
        (symbol, horizontal)
        for (source, symbol), horizontal in nta.delta.items()
        if source == state
    ]
    rng.shuffle(options)
    for symbol, horizontal in options:
        if symbol == TEXT:
            if horizontal.accepts_empty_word():
                return Tree("txt%d" % rng.randrange(1000), is_text=True)
            continue
        word = _random_word(horizontal, budget - 1, rng, smallest)
        if word is None:
            continue
        children: List[Tree] = []
        remaining = budget - 1
        feasible = True
        needed = sum(smallest[q] for q in word)
        for index, q in enumerate(word):
            # Budget for this child: leave room for the remaining ones.
            needed -= smallest[q]
            child_budget = remaining - needed
            child = _grow(nta, q, child_budget, rng, smallest)
            if child is None:
                feasible = False
                break
            children.append(child)
            remaining -= child.size
        if feasible:
            return Tree(symbol, children)
    return None


def _random_word(
    horizontal: NFA,
    budget: int,
    rng: random.Random,
    smallest: Dict[State, int],
) -> Optional[Tuple[State, ...]]:
    """A random accepted word whose symbols' smallest-tree sizes fit the
    budget (biased toward stopping as length grows)."""
    horizontal = horizontal.without_epsilon()
    state = horizontal.initial
    word: List[State] = []
    spent = 0
    for _step in range(64):
        can_stop = state in horizontal.finals
        moves = [
            (symbol, target)
            for symbol in horizontal.symbols_from(state)
            for target in horizontal.step(state, symbol)
            if symbol in smallest and spent + smallest[symbol] <= budget
        ]
        if can_stop and (not moves or rng.random() < 0.4 + 0.1 * len(word)):
            return tuple(word)
        if not moves:
            return tuple(word) if can_stop else None
        symbol, target = rng.choice(moves)
        word.append(symbol)
        spent += smallest[symbol]
        state = target
    return None
