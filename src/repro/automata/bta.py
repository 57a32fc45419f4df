"""Bottom-up nondeterministic binary tree automata (BTAs).

These are the workhorse behind everything that needs complementation
or logic: unranked regular tree languages are handled through their
first-child/next-sibling encodings (:mod:`repro.automata.fcns`), on
which BTAs enjoy the classical closure properties with simple
constructions — product, disjoint-union, subset-construction
determinization (hence complement), relabelling in both directions
(hence MSO projection/cylindrification), and emptiness with witnesses.

A binary tree (:class:`BTree`) is a node with a label and two optional
children; the absent child is "nil".  A BTA assigns states bottom-up:
``leaf_states`` may be assumed at every nil position, and a node
labelled ``a`` whose children evaluated to ``(q_left, q_right)`` may
take any state in ``transitions[a][(q_left, q_right)]``.  The tree is
accepted when the root can take a state in ``finals``.

Transitions are stored once per *label class*: labels with the same
table share it, and a label → class map says which.  Marked alphabets
(MSO compilation) put many labels in one class, so the constructions
below work per class, not per label, and build their results' tables
and class maps directly instead of regrouping them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from typing import (
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

__all__ = ["BTree", "BTA", "intersect_bta", "union_bta", "bleaf"]

State = Hashable
Label = Hashable
Pair = Tuple[State, State]
Table = Dict[Pair, FrozenSet[State]]

_NO_TARGETS: FrozenSet[State] = frozenset()


class BTree:
    """An immutable binary tree; ``None`` children are nil."""

    __slots__ = ("label", "left", "right", "_hash", "_size")

    def __init__(
        self, label: Label, left: Optional["BTree"] = None, right: Optional["BTree"] = None
    ) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        size = 1
        if left is not None:
            size += left.size
        if right is not None:
            size += right.size
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BTree objects are immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BTree):
            return NotImplemented
        return (
            self.label == other.label
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.label, self.left, self.right))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.left is None and self.right is None:
            return "BTree(%r)" % (self.label,)
        return "BTree(%r, %r, %r)" % (self.label, self.left, self.right)

    @property
    def size(self) -> int:
        """Number of (non-nil) nodes."""
        return self._size

    def nodes(self) -> Iterator[Tuple[Tuple[int, ...], "BTree"]]:
        """Yield ``(path, subtree)`` pairs; paths are 0/1 sequences."""
        stack: List[Tuple[Tuple[int, ...], BTree]] = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if node.right is not None:
                stack.append((path + (1,), node.right))
            if node.left is not None:
                stack.append((path + (0,), node.left))

    def relabel(self, fn: Callable[[Label], Label]) -> "BTree":
        """Apply ``fn`` to every label."""
        left = self.left.relabel(fn) if self.left is not None else None
        right = self.right.relabel(fn) if self.right is not None else None
        return BTree(fn(self.label), left, right)


def bleaf(label: Label) -> BTree:
    """A binary leaf (both children nil)."""
    return BTree(label)


class _Tables:
    """Class tables under construction, one per distinct content."""

    __slots__ = ("tables", "_by_size")

    def __init__(self) -> None:
        self.tables: List[Table] = []
        self._by_size: Dict[int, List[int]] = {}

    def index(self, table: Table) -> int:
        """The class of ``table``; a table equal to none so far opens a
        new class."""
        candidates = self._by_size.setdefault(len(table), [])
        for index in candidates:
            if self.tables[index] == table:
                return index
        candidates.append(len(self.tables))
        self.tables.append(table)
        return len(self.tables) - 1


class BTA:
    """A bottom-up nondeterministic binary tree automaton.

    Parameters
    ----------
    states:
        State set.
    alphabet:
        Label alphabet.
    leaf_states:
        States assignable to nil positions.
    transitions:
        Mapping ``label -> {(q_left, q_right): set_of_targets}``.  Every
        label must be in ``alphabet`` and every state in ``states``.
    finals:
        Accepting root states.

    Transitions are stored once per *label class*: ``_tables`` holds one
    table ``{(q_left, q_right): frozenset(targets)}`` per class, pairwise
    distinct in content, and ``_class_of`` maps every alphabet label to
    its class (labels without transitions share the empty table).  The
    map lists the labels with transitions first, in the order
    :meth:`rules` and :meth:`witness` visit them.  Tables are never
    modified, so constructions share them freely.
    ``_inhabited`` caches the inhabited states; constructions whose
    states are all inhabited set it when they build the automaton.
    """

    __slots__ = (
        "states", "alphabet", "leaf_states", "finals", "_tables", "_class_of", "_inhabited"
    )

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Label],
        leaf_states: Iterable[State],
        transitions: Dict[Label, Dict[Tuple[State, State], Set[State]]],
        finals: Iterable[State],
    ) -> None:
        frozen_states = frozenset(states)
        frozen_alphabet = frozenset(alphabet)
        frozen_leaves = frozenset(leaf_states)
        frozen_finals = frozenset(finals)
        if not frozen_leaves <= frozen_states:
            raise ValueError("leaf states must be states")
        if not frozen_finals <= frozen_states:
            raise ValueError("final states must be states")
        # Labels frequently share one table object (class-grouped
        # constructions); freeze and check each distinct object once.
        tables = _Tables()
        class_by_object: Dict[int, int] = {}
        class_of: Dict[Label, int] = {}
        for label, by_pair in transitions.items():
            if label not in frozen_alphabet:
                raise ValueError("transition label %r is not in the alphabet" % (label,))
            index = class_by_object.get(id(by_pair))
            if index is None:
                frozen = {pair: frozenset(targets) for pair, targets in by_pair.items()}
                for (q_left, q_right), targets in frozen.items():
                    if not (
                        q_left in frozen_states
                        and q_right in frozen_states
                        and targets <= frozen_states
                    ):
                        raise ValueError(
                            "transition states must be states (label %r)" % (label,)
                        )
                index = class_by_object[id(by_pair)] = tables.index(frozen)
            class_of[label] = index
        silent = [label for label in frozen_alphabet if label not in class_of]
        if silent:
            empty = tables.index({})
            class_of.update((label, empty) for label in silent)
        self._fill(
            frozen_states, frozen_alphabet, frozen_leaves, frozen_finals,
            tuple(tables.tables), _class_map(class_of.items(), tables.tables), None,
        )

    @classmethod
    def _of(
        cls,
        states: FrozenSet[State],
        alphabet: FrozenSet[Label],
        leaf_states: FrozenSet[State],
        finals: FrozenSet[State],
        tables: Tuple[Table, ...],
        class_of: Dict[Label, int],
        inhabited: Optional[FrozenSet[State]] = None,
    ) -> "BTA":
        """The kernel's constructor: the arguments are frozen and
        consistent (every table used by some label, tables pairwise
        distinct, ``class_of`` total on the alphabet) and are stored as
        they are, without copying or checking."""
        bta = cls.__new__(cls)
        bta._fill(states, alphabet, leaf_states, finals, tables, class_of, inhabited)
        return bta

    def _fill(
        self,
        states: FrozenSet[State],
        alphabet: FrozenSet[Label],
        leaf_states: FrozenSet[State],
        finals: FrozenSet[State],
        tables: Tuple[Table, ...],
        class_of: Dict[Label, int],
        inhabited: Optional[FrozenSet[State]],
    ) -> None:
        self.states: FrozenSet[State] = states
        self.alphabet: FrozenSet[Label] = alphabet
        self.leaf_states: FrozenSet[State] = leaf_states
        self.finals: FrozenSet[State] = finals
        self._tables = tables
        self._class_of = class_of
        self._inhabited = inhabited

    # -- introspection ----------------------------------------------------

    def _labels_per_class(self) -> List[int]:
        counts = [0] * len(self._tables)
        for index in self._class_of.values():
            counts[index] += 1
        return counts

    @property
    def size(self) -> int:
        """States plus transition entries, counted per label (a rough
        complexity measure)."""
        return len(self.states) + sum(
            count * sum(len(targets) for targets in table.values())
            for count, table in zip(self._labels_per_class(), self._tables)
        )

    def __repr__(self) -> str:
        return "BTA(states=%d, alphabet=%d, rules=%d)" % (
            len(self.states),
            len(self.alphabet),
            sum(
                count * len(table)
                for count, table in zip(self._labels_per_class(), self._tables)
            ),
        )

    def rules(self) -> Iterator[Tuple[Label, State, State, State]]:
        """Yield ``(label, q_left, q_right, target)`` quadruples."""
        for label, index in self._class_of.items():
            for (q_left, q_right), targets in self._tables[index].items():
                for target in targets:
                    yield (label, q_left, q_right, target)

    def targets(self, label: Label, q_left: State, q_right: State) -> FrozenSet[State]:
        """The target set ``Delta_label(q_left, q_right)``."""
        return self._table_of(label).get((q_left, q_right), _NO_TARGETS)

    def _table_of(self, label: Label) -> Table:
        index = self._class_of.get(label)
        return self._tables[index] if index is not None else {}

    # -- membership --------------------------------------------------------

    def eval_states(self, t: Optional[BTree]) -> FrozenSet[State]:
        """The set of states the subtree can evaluate to (nil gives
        ``leaf_states``)."""
        if t is None:
            return self.leaf_states
        memo: Dict[BTree, FrozenSet[State]] = {}
        return self._eval(t, memo)

    def _eval(self, t: BTree, memo: Dict[BTree, FrozenSet[State]]) -> FrozenSet[State]:
        cached = memo.get(t)
        if cached is not None:
            return cached
        left = self._eval(t.left, memo) if t.left is not None else self.leaf_states
        right = self._eval(t.right, memo) if t.right is not None else self.leaf_states
        result: Set[State] = set()
        by_pair = self._table_of(t.label)
        if len(left) * len(right) <= len(by_pair):
            for q_left in left:
                for q_right in right:
                    result |= by_pair.get((q_left, q_right), _NO_TARGETS)
        else:
            for (q_left, q_right), targets in by_pair.items():
                if q_left in left and q_right in right:
                    result |= targets
        out = frozenset(result)
        memo[t] = out
        return out

    def accepts(self, t: BTree) -> bool:
        """Whether ``t`` is accepted."""
        return bool(self.eval_states(t) & self.finals)

    # -- emptiness / witness --------------------------------------------------

    def inhabited_states(self) -> FrozenSet[State]:
        """States reachable bottom-up from nil (emptiness: a worklist
        over the distinct class tables)."""
        if self._inhabited is not None:
            return self._inhabited
        # A rule waits on both of its children.
        waiting: Dict[State, List[Tuple[State, State, FrozenSet[State]]]] = {}
        for table in self._tables:
            for (q_left, q_right), targets in table.items():
                rule = (q_left, q_right, targets)
                waiting.setdefault(q_left, []).append(rule)
                if q_right != q_left:
                    waiting.setdefault(q_right, []).append(rule)
        inhabited: Set[State] = set(self.leaf_states)
        work = list(inhabited)
        while work:
            for q_left, q_right, targets in waiting.get(work.pop(), ()):
                if q_left in inhabited and q_right in inhabited:
                    for target in targets:
                        if target not in inhabited:
                            inhabited.add(target)
                            work.append(target)
        self._inhabited = frozenset(inhabited)
        return self._inhabited

    def is_empty(self) -> bool:
        """Whether the accepted language is empty."""
        return not (self.inhabited_states() & self.finals)

    def witness(self) -> Optional[BTree]:
        """A smallest accepted binary tree, or ``None`` when empty.

        A Dijkstra pass computes, per state, the smallest subtree *or
        nil* evaluating to it (nil costs 0 at leaf states); the witness
        is then the cheapest rule application landing in a final state
        — acceptance needs an actual root node, so a final state's nil
        derivation alone does not accept.

        Each class is scanned once, under its first label: the other
        labels of a class reach the same costs and never win a strict
        comparison, so the result is that of a scan over every label.
        """
        first_label: Dict[int, Label] = {}
        for label, index in self._class_of.items():
            first_label.setdefault(index, label)
        classes = [(label, self._tables[index]) for index, label in first_label.items()]
        best: Dict[State, Optional[BTree]] = {q: None for q in self.leaf_states}
        cost: Dict[State, int] = {q: 0 for q in self.leaf_states}
        heap: List[Tuple[int, int, State]] = []
        counter = itertools.count()
        for q in self.leaf_states:
            heapq.heappush(heap, (0, next(counter), q))
        settled: Set[State] = set()
        while heap:
            _c, _tie, state = heapq.heappop(heap)
            if state in settled:
                continue
            settled.add(state)
            for label, by_pair in classes:
                for (q_left, q_right), targets in by_pair.items():
                    if q_left not in settled or q_right not in settled:
                        continue
                    if state not in (q_left, q_right):
                        continue
                    new_cost = 1 + cost[q_left] + cost[q_right]
                    for target in targets:
                        if target in settled:
                            continue
                        if target not in cost or new_cost < cost[target]:
                            cost[target] = new_cost
                            best[target] = BTree(label, best[q_left], best[q_right])
                            heapq.heappush(heap, (new_cost, next(counter), target))
        champion: Optional[BTree] = None
        for label, by_pair in classes:
            for (q_left, q_right), targets in by_pair.items():
                if q_left not in settled or q_right not in settled:
                    continue
                if not (targets & self.finals):
                    continue
                candidate_cost = 1 + cost[q_left] + cost[q_right]
                if champion is None or candidate_cost < champion.size:
                    champion = BTree(label, best[q_left], best[q_right])
        return champion

    # -- label classes -----------------------------------------------------------

    def label_classes(self) -> List[Tuple[Tuple[Label, ...], Table]]:
        """The label classes, each with its shared transition table.

        Marked alphabets (MSO compilation) contain many labels whose
        behaviour coincides; the constructions below work per *class*
        instead of per label, which routinely shrinks the work by the
        number of mark combinations.
        """
        members: List[List[Label]] = [[] for _ in self._tables]
        for label, index in self._class_of.items():
            members[index].append(label)
        return [(tuple(labels), table) for labels, table in zip(members, self._tables)]

    # -- trimming ----------------------------------------------------------------

    def trim(self) -> "BTA":
        """Keep only states that occur in some accepting evaluation.

        A worklist walks from the inhabited final states to the
        inhabited children of the rules producing useful states.  Every
        useful state is inhabited, which the result records.
        """
        inhabited = self.inhabited_states()
        everywhere = len(inhabited) == len(self.states)
        producers: Dict[State, List[Pair]] = {}
        for table in self._tables:
            for pair, targets in table.items():
                if everywhere or (pair[0] in inhabited and pair[1] in inhabited):
                    for target in targets:
                        producers.setdefault(target, []).append(pair)
        useful: Set[State] = set(self.finals & inhabited)
        work = list(useful)
        while work:
            for pair in producers.get(work.pop(), ()):
                for q in pair:
                    if q not in useful:
                        useful.add(q)
                        work.append(q)
        if useful and len(useful) == len(self.states):
            # Nothing to drop: share the tables.
            tables: Sequence[Table] = self._tables
            remap = list(range(len(tables)))
        else:
            kept_tables = _Tables()
            remap = []
            for table in self._tables:
                kept: Table = {}
                for pair, targets in table.items():
                    if pair[0] in useful and pair[1] in useful:
                        if not targets <= useful:
                            targets = targets & useful
                        if targets:
                            kept[pair] = targets
                remap.append(kept_tables.index(kept))
            tables = kept_tables.tables
        labels = _grouped(self.alphabet, self._class_of.__getitem__)
        kept_states = frozenset(useful)
        return BTA._of(
            kept_states or frozenset(["__dead__"]),
            self.alphabet,
            self.leaf_states & kept_states,
            self.finals & kept_states,
            tuple(tables),
            _class_map(((label, remap[self._class_of[label]]) for label in labels), tables),
            kept_states,
        )

    # -- determinization / complement -----------------------------------------------

    def determinize(self) -> "BTA":
        """Subset construction.  The result is deterministic and
        complete over its reachable subset-states (every label and pair
        of reachable states has exactly one target), so complement is a
        final-flip.

        Subsets are int bitmasks over the states, explored by a
        worklist.  When a subset is taken, the rows of its members are
        merged once per class; its pairs with every subset taken so far
        then get their targets, so each (subset, subset, class) target
        is computed exactly once, and once for all classes whose merged
        rows coincide.  Labels without transitions form the empty class,
        whose target is the empty subset.
        """
        order = list(self.states)
        position = {q: i for i, q in enumerate(order)}
        # rows[c][i][j]: the target mask of class c at children (i, j).
        rows: List[Dict[int, Dict[int, int]]] = []
        for table in self._tables:
            by_left: Dict[int, Dict[int, int]] = {}
            for (q_left, q_right), targets in table.items():
                if targets:
                    mask = 0
                    for target in targets:
                        mask |= 1 << position[target]
                    by_left.setdefault(position[q_left], {})[position[q_right]] = mask
            rows.append(by_left)
        nil = 0
        for q in self.leaf_states:
            nil |= 1 << position[q]
        masks = [nil]
        members = [_bits(nil)]
        number = {nil: 0}
        # merged[k]: the distinct merged rows of subset k, and which of
        # them belongs to each class.
        merged: List[Tuple[List[List[int]], List[int]]] = []
        pairs: List[Tuple[int, int]] = []
        columns: List[List[int]] = [[] for _ in rows]
        taken = 0
        while taken < len(masks):
            distinct: List[List[int]] = []
            row_number: Dict[Tuple[int, ...], int] = {}
            row_of_class: List[int] = []
            for by_left in rows:
                merged_row = [0] * len(order)
                for i in members[taken]:
                    row = by_left.get(i)
                    if row:
                        for j, mask in row.items():
                            merged_row[j] |= mask
                key = tuple(merged_row)
                index = row_number.get(key)
                if index is None:
                    index = row_number[key] = len(distinct)
                    distinct.append(merged_row)
                row_of_class.append(index)
            merged.append((distinct, row_of_class))
            for other in range(taken + 1):
                new_pairs = [(taken, other)] if other == taken else [(taken, other), (other, taken)]
                for left, right in new_pairs:
                    pairs.append((left, right))
                    right_members = members[right]
                    distinct, row_of_class = merged[left]
                    found_targets: List[int] = []
                    for merged_row in distinct:
                        found = functools.reduce(
                            operator.or_, map(merged_row.__getitem__, right_members), 0
                        )
                        target = number.get(found)
                        if target is None:
                            target = number[found] = len(masks)
                            masks.append(found)
                            members.append(_bits(found))
                        found_targets.append(target)
                    for column, index in zip(columns, row_of_class):
                        column.append(found_targets[index])
            taken += 1
        subsets = [frozenset([order[i] for i in bits]) for bits in members]
        singles = [frozenset((subset,)) for subset in subsets]
        keys = [(subsets[left], subsets[right]) for left, right in pairs]
        tables: List[Table] = []
        class_by_column: Dict[Tuple[int, ...], int] = {}
        remap: List[int] = []
        for column in columns:
            signature = tuple(column)
            index = class_by_column.get(signature)
            if index is None:
                index = class_by_column[signature] = len(tables)
                tables.append(dict(zip(keys, [singles[target] for target in column])))
            remap.append(index)
        final_mask = 0
        for q in self.finals:
            final_mask |= 1 << position[q]
        states = frozenset(subsets)
        labels = _grouped(self.alphabet, self._class_of.__getitem__)
        return BTA._of(
            states,
            self.alphabet,
            frozenset(subsets[:1]),
            frozenset(s for s, mask in zip(subsets, masks) if mask & final_mask),
            tuple(tables),
            {label: remap[self._class_of[label]] for label in labels},
            states,
        )

    def complement(self) -> "BTA":
        """BTA for the complement language over the same alphabet."""
        det = minimize_dbta(self.determinize())
        return BTA._of(
            det.states,
            det.alphabet,
            det.leaf_states,
            det.states - det.finals,
            det._tables,
            det._class_of,
            det._inhabited,
        )

    def is_deterministic(self) -> bool:
        """Whether every (label, pair) has at most one target and nil
        has exactly one state."""
        if len(self.leaf_states) != 1:
            return False
        return all(
            len(targets) <= 1 for table in self._tables for targets in table.values()
        )

    # -- relabelling ----------------------------------------------------------

    def image(self, fn: Callable[[Label], Label]) -> "BTA":
        """BTA for ``{fn(t) : t accepted}`` (projection; may add
        nondeterminism).  A label's table is the union of the tables of
        its source classes, merged once per distinct set of source
        classes; a label with one source class shares that table."""
        sources: Dict[Label, List[int]] = {}
        for label, index in self._class_of.items():
            classes = sources.setdefault(fn(label), [])
            if self._tables[index] and index not in classes:
                classes.append(index)
        tables = _Tables()
        class_by_sources: Dict[FrozenSet[int], int] = {}
        class_of: Dict[Label, int] = {}
        for label, classes in sources.items():
            key = frozenset(classes)
            index = class_by_sources.get(key)
            if index is None:
                index = class_by_sources[key] = tables.index(
                    _merged([self._tables[c] for c in classes])
                )
            class_of[label] = index
        return BTA._of(
            self.states,
            frozenset(sources),
            self.leaf_states,
            self.finals,
            tuple(tables.tables),
            _class_map(class_of.items(), tables.tables),
            self._inhabited,
        )

    def preimage(self, fn: Callable[[Label], Label], new_alphabet: Iterable[Label]) -> "BTA":
        """BTA over ``new_alphabet`` for ``{t : fn(t) accepted}``
        (cylindrification).  Only the class map is rewritten: a label
        takes the class of its image, whose table is shared."""
        labels = list(new_alphabet)
        return self._relabelled(
            frozenset(labels), ((label, self._class_of.get(fn(label))) for label in labels)
        )

    def restrict_alphabet(self, alphabet: Iterable[Label]) -> "BTA":
        """Drop transitions whose label is outside ``alphabet``."""
        keep = frozenset(alphabet)
        kept = ((label, index) for label, index in self._class_of.items() if label in keep)
        added = ((label, None) for label in keep if label not in self._class_of)
        return self._relabelled(keep, itertools.chain(kept, added))

    def _relabelled(
        self, alphabet: FrozenSet[Label], sources: Iterable[Tuple[Label, Optional[int]]]
    ) -> "BTA":
        """The automaton over ``alphabet`` whose labels take the given
        classes of this one (``None``: no transitions), sharing their
        tables.  The inhabited states carry over when every non-empty
        class is still used."""
        renumber: Dict[Optional[int], int] = {}
        tables: List[Table] = []
        class_of: Dict[Label, int] = {}
        for label, source in sources:
            if source is not None and not self._tables[source]:
                source = None
            index = renumber.get(source)
            if index is None:
                index = renumber[source] = len(tables)
                tables.append({} if source is None else self._tables[source])
            class_of[label] = index
        all_used = len(renumber) - (None in renumber) == sum(1 for t in self._tables if t)
        return BTA._of(
            self.states,
            alphabet,
            self.leaf_states,
            self.finals,
            tuple(tables),
            _class_map(class_of.items(), tables),
            self._inhabited if all_used else None,
        )

    def rename_states(self, prefix: str) -> "BTA":
        """An isomorphic copy with states ``(prefix, i)``."""
        names = {q: (prefix, i) for i, q in enumerate(sorted(self.states, key=repr))}
        tables: Tuple[Table, ...] = tuple(
            {
                (names[q_left], names[q_right]): frozenset([names[t] for t in targets])
                for (q_left, q_right), targets in table.items()
            }
            for table in self._tables
        )
        inhabited = self._inhabited
        return BTA._of(
            frozenset(names.values()),
            self.alphabet,
            frozenset(names[q] for q in self.leaf_states),
            frozenset(names[q] for q in self.finals),
            tables,
            self._class_of,
            None if inhabited is None else frozenset(names[q] for q in inhabited),
        )


def _grouped(labels: Iterable[Label], key: Callable[[Label], Hashable]) -> List[Label]:
    """``labels`` grouped by ``key``, groups in order of first
    appearance.  Constructions that regroup labels (trim, subset
    construction, product) list them so: by class in alphabet order.
    Ties between equally small witnesses go to the label listed first."""
    groups: Dict[Hashable, List[Label]] = {}
    for label in labels:
        groups.setdefault(key(label), []).append(label)
    return [label for group in groups.values() for label in group]


def _class_map(pairs: Iterable[Tuple[Label, int]], tables: Sequence[Table]) -> Dict[Label, int]:
    """A class map from ``(label, class)`` pairs: the labels with
    transitions first, in the given order, then those without."""
    class_of: Dict[Label, int] = {}
    silent: List[Tuple[Label, int]] = []
    for label, index in pairs:
        if tables[index]:
            class_of[label] = index
        else:
            silent.append((label, index))
    class_of.update(silent)
    return class_of


def _bits(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _merged(tables: List[Table]) -> Table:
    """The union of several tables (a single table is returned as is)."""
    if len(tables) == 1:
        return tables[0]
    merged: Table = {}
    for table in tables:
        for pair, targets in table.items():
            known = merged.get(pair)
            if known is None:
                merged[pair] = targets
            elif not targets <= known:
                merged[pair] = known | targets
    return merged


# -- boolean combinations --------------------------------------------------------


def _by_child(table: Table) -> Tuple[Dict[State, Dict[State, FrozenSet[State]]], ...]:
    """A table indexed by each child position: ``[position][q][other]``
    is the target set of the rule with child ``q`` at ``position`` and
    child ``other`` at the other one."""
    by_left: Dict[State, Dict[State, FrozenSet[State]]] = {}
    by_right: Dict[State, Dict[State, FrozenSet[State]]] = {}
    for (q_left, q_right), targets in table.items():
        by_left.setdefault(q_left, {})[q_right] = targets
        by_right.setdefault(q_right, {})[q_left] = targets
    return by_left, by_right


def intersect_bta(left: BTA, right: BTA) -> BTA:
    """Product BTA for the intersection.  Both inputs should share an
    alphabet; labels only in one side yield no transitions (empty
    intersection there).

    The product runs once per *pair of label classes*: labels whose
    classes coincide on both sides share their product table.  A
    worklist grows the product states bottom-up from the leaf pairs.  A
    popped state visits only the class pairs whose rules have its two
    components as the same child, and builds a product rule when its
    other child has been popped before, so each rule is built once.
    Every product state is inhabited, which the result records.
    """
    alphabet = left.alphabet | right.alphabet
    leaf = frozenset(itertools.product(left.leaf_states, right.leaf_states))

    # The class pair of every label with transitions on both sides.
    pair_of: Dict[Label, Tuple[int, int]] = {}
    for label in alphabet:
        l_class = left._class_of.get(label)
        r_class = right._class_of.get(label)
        if l_class is None or r_class is None:
            continue
        if left._tables[l_class] and right._tables[r_class]:
            pair_of[label] = (l_class, r_class)
    buckets: Dict[Tuple[int, int], Table] = {key: {} for key in pair_of.values()}
    partners: Dict[int, List[Tuple[int, Table]]] = {}
    for (l_class, r_class), bucket in buckets.items():
        partners.setdefault(l_class, []).append((r_class, bucket))
    l_rules = {l_class: _by_child(left._tables[l_class]) for l_class in partners}
    r_rules = {r_class: _by_child(right._tables[r_class]) for (_l, r_class) in buckets}
    # mentions[position][q]: the left classes with a rule having q as
    # child `position`.
    mentions: Tuple[Dict[State, List[int]], Dict[State, List[int]]] = ({}, {})
    for l_class, by_position in l_rules.items():
        for position in (0, 1):
            for q in by_position[position]:
                mentions[position].setdefault(q, []).append(l_class)

    states: Set[Pair] = set(leaf)
    work: List[Pair] = list(leaf)
    # popped[r]: the left components popped together with r.
    popped: Dict[State, Set[State]] = {}
    # One target set per pair of component target sets: a set seen
    # before has all of its states discovered already.
    combined: Dict[Tuple[int, int], FrozenSet[Pair]] = {}
    while work:
        state = work.pop()
        new_l, new_r = state
        popped.setdefault(new_r, set()).add(new_l)
        for position in (0, 1):
            for l_class in mentions[position].get(new_l, ()):
                l_others = l_rules[l_class][position][new_l]
                for r_class, bucket in partners[l_class]:
                    r_others = r_rules[r_class][position].get(new_r)
                    if r_others is None:
                        continue
                    for other_r, r_targets in r_others.items():
                        # The other child must have been popped already
                        # (a rule with two equal children is built at
                        # position 0).
                        lefts = popped.get(other_r)
                        if not lefts:
                            continue
                        if len(lefts) < len(l_others):
                            matches = [other_l for other_l in lefts if other_l in l_others]
                        else:
                            matches = [other_l for other_l in l_others if other_l in lefts]
                        for other_l in matches:
                            if position == 0:
                                key = (state, (other_l, other_r))
                            elif other_l == new_l and other_r == new_r:
                                continue
                            else:
                                key = ((other_l, other_r), state)
                            l_targets = l_others[other_l]
                            ids = (id(l_targets), id(r_targets))
                            targets = combined.get(ids)
                            if targets is None:
                                targets = combined[ids] = frozenset(
                                    itertools.product(l_targets, r_targets)
                                )
                                for combo in targets:
                                    if combo not in states:
                                        states.add(combo)
                                        work.append(combo)
                            bucket[key] = targets
    tables = _Tables()
    class_of_pair: Dict[Optional[Tuple[int, int]], int] = {
        key: tables.index(bucket) for key, bucket in buckets.items()
    }
    if len(pair_of) < len(alphabet):
        class_of_pair[None] = tables.index({})
    class_of = _class_map(
        (
            (label, class_of_pair[pair_of.get(label)])
            for label in _grouped(alphabet, pair_of.get)
        ),
        tables.tables,
    )
    product_states = frozenset(states)
    finals = frozenset(
        (l, r) for (l, r) in product_states if l in left.finals and r in right.finals
    )
    return BTA._of(
        product_states, alphabet, leaf, finals, tuple(tables.tables), class_of, product_states
    )


def minimize_dbta(det: BTA) -> BTA:
    """Myhill–Nerode minimization of a *deterministic, complete* BTA.

    Partition refinement: two states are distinguishable when plugging
    them into the same one-step context (label class plus sibling state
    on either side) yields states in different blocks.  The input must
    be deterministic (one nil state, at most one target per
    transition); completeness over reachable contexts is what
    :meth:`BTA.determinize` guarantees.

    The states are numbered in ``sorted(states, key=repr)`` order, and
    each state's targets in every context form an integer row computed
    once; a round re-blocks the states by their block and the blocks
    along their row.  Blocks are numbered by first appearance in that
    order, and the quotient reads each block pair's target off one
    representative pair.
    """
    if not det.is_deterministic():
        raise ValueError("minimize_dbta needs a deterministic BTA")
    states = sorted(det.states, key=repr)
    size = len(states)
    position = {q: i for i, q in enumerate(states)}
    # grids[c][i][j]: the target of class c at children (i, j), or
    # `size` when there is none.
    grids: List[List[List[int]]] = []
    for table in det._tables:
        grid = [[size] * size for _ in range(size)]
        for (q_left, q_right), targets in table.items():
            for target in targets:
                grid[position[q_left]][position[q_right]] = position[target]
        grids.append(grid)
    rows: List[List[int]] = [[] for _ in range(size)]
    for grid in grids:
        for row, as_left, as_right in zip(rows, grid, zip(*grid)):
            row.extend(as_left)
            row.extend(as_right)

    finals = det.finals
    block = [1 if q in finals else 0 for q in states]
    count = len(set(block))
    while True:
        # Index `size` (no target) reads as block -1.
        lookup = block + [-1]
        numbering: Dict[Tuple[int, ...], int] = {}
        block = [
            numbering.setdefault((lookup[i],) + tuple(map(lookup.__getitem__, row)), len(numbering))
            for i, row in enumerate(rows)
        ]
        # Signatures embed the old block, so the new partition refines
        # the old one: stop when the block count is stable.
        if len(numbering) == count:
            break
        count = len(numbering)

    representatives: Dict[int, int] = {}
    for i, b in enumerate(block):
        representatives.setdefault(b, i)
    reps = [representatives[b] for b in range(count)]
    block_pairs = list(itertools.product(range(count), repeat=2))
    singles = [frozenset((b,)) for b in range(count)]
    tables: List[Table] = []
    class_by_targets: Dict[Tuple[int, ...], int] = {}
    remap: List[int] = []
    for grid in grids:
        found = tuple(
            block[grid[i][j]] if grid[i][j] < size else -1 for i in reps for j in reps
        )
        index = class_by_targets.get(found)
        if index is None:
            index = class_by_targets[found] = len(tables)
            tables.append(
                {pair: singles[b] for pair, b in zip(block_pairs, found) if b >= 0}
            )
        remap.append(index)
    class_of = det._class_of
    if any(new != old for old, new in enumerate(remap)):
        class_of = {label: remap[index] for label, index in class_of.items()}
    blocks = frozenset(range(count))
    inhabited = det._inhabited
    return BTA._of(
        blocks,
        det.alphabet,
        frozenset(block[position[q]] for q in det.leaf_states),
        frozenset(block[position[q]] for q in det.finals),
        tuple(tables),
        class_of,
        blocks if inhabited is not None and len(inhabited) == size else None,
    )


def union_bta(left: BTA, right: BTA) -> BTA:
    """Disjoint-union BTA for the union (runs stay in one component).
    A label's table joins the renamed tables of its two classes, once
    per distinct pair of classes."""
    left = left.rename_states("L")
    right = right.rename_states("R")
    alphabet = left.alphabet | right.alphabet
    # The labels with transitions on the left, then those with
    # transitions on the right only, then the rest.
    labels = [label for label, index in left._class_of.items() if left._tables[index]]
    placed = set(labels)
    labels.extend(
        label for label, index in right._class_of.items()
        if right._tables[index] and label not in placed
    )
    placed.update(labels)
    labels.extend(label for label in alphabet if label not in placed)
    tables: List[Table] = []
    class_by_pair: Dict[Tuple[Optional[int], Optional[int]], int] = {}
    class_of: Dict[Label, int] = {}
    for label in labels:
        l_class = left._class_of.get(label)
        r_class = right._class_of.get(label)
        if l_class is not None and not left._tables[l_class]:
            l_class = None
        if r_class is not None and not right._tables[r_class]:
            r_class = None
        # Distinct class pairs give distinct tables: the two renamed
        # sides share no state.
        index = class_by_pair.get((l_class, r_class))
        if index is None:
            index = class_by_pair[(l_class, r_class)] = len(tables)
            sides = [left._tables[l_class]] if l_class is not None else []
            if r_class is not None:
                sides.append(right._tables[r_class])
            tables.append(_merged(sides))
        class_of[label] = index
    inhabited = None
    if left._inhabited is not None and right._inhabited is not None:
        inhabited = left._inhabited | right._inhabited
    return BTA._of(
        left.states | right.states,
        alphabet,
        left.leaf_states | right.leaf_states,
        left.finals | right.finals,
        tuple(tables),
        class_of,
        inhabited,
    )
