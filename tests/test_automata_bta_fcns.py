"""Tests for binary tree automata, FCNS encoding, and complementation."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.automata import (
    BTA,
    BTree,
    TEXT,
    bleaf,
    bta_to_nta,
    complement_nta,
    decode_tree,
    encode_hedge,
    encode_tree,
    intersect_bta,
    nta_from_rules,
    nta_to_bta,
    nta_witness_not_in,
    union_bta,
    universal_nta,
    valid_encoding_bta,
)
from repro.automata.bta import minimize_dbta
from repro.automata.fcns import decode_hedge
from repro.mso import marked_alphabet
from repro.trees import parse_tree, tree


class TestEncoding:
    def test_single_leaf(self):
        assert encode_tree(tree("a")) == bleaf("a")

    def test_children_go_left_siblings_right(self):
        t = tree("a", tree("b"), tree("c"))
        enc = encode_tree(t)
        assert enc.label == "a"
        assert enc.left is not None and enc.left.label == "b"
        assert enc.left.right is not None and enc.left.right.label == "c"
        assert enc.right is None

    def test_text_nodes_become_placeholder(self):
        enc = encode_tree(tree("a", "hello"))
        assert enc.left is not None
        assert enc.left.label == TEXT

    def test_round_trip_structure(self):
        t = parse_tree('a(b(c "x") d(e) "y")')
        decoded = decode_tree(encode_tree(t))
        # Text values are re-invented, so compare canonical shapes.
        from repro.trees import canonical_substitution

        assert canonical_substitution(decoded) == canonical_substitution(t)

    def test_hedge_round_trip(self):
        h = (tree("a", tree("b")), tree("c"))
        assert decode_hedge(encode_hedge(h)) == h

    def test_empty_hedge(self):
        assert encode_hedge(()) is None
        assert decode_hedge(None) == ()

    def test_size_preserved(self):
        t = parse_tree("a(b(c d) e)")
        assert encode_tree(t).size == t.size


class TestBTreeBasics:
    def test_nodes(self):
        t = BTree("a", bleaf("b"), bleaf("c"))
        labels = {node.label for _path, node in t.nodes()}
        assert labels == {"a", "b", "c"}

    def test_relabel(self):
        t = BTree("a", bleaf("b"), None)
        relabeled = t.relabel(str.upper)
        assert relabeled.label == "A"
        assert relabeled.left.label == "B"

    def test_immutability(self):
        with pytest.raises(AttributeError):
            bleaf("a").label = "b"


def parity_bta() -> BTA:
    """Accepts binary trees over {a} with an even number of nodes... via
    two states tracking parity."""
    even, odd = "even", "odd"
    transitions = {
        "a": {
            (even, even): {odd},
            (even, odd): {even},
            (odd, even): {even},
            (odd, odd): {odd},
        }
    }
    return BTA({even, odd}, {"a"}, {even}, transitions, {even})


class TestBTA:
    def test_eval_and_accept(self):
        bta = parity_bta()
        assert not bta.accepts(bleaf("a"))  # 1 node: odd
        assert bta.accepts(BTree("a", bleaf("a"), None))  # 2 nodes
        assert not bta.accepts(BTree("a", bleaf("a"), bleaf("a")))  # 3

    def test_emptiness(self):
        bta = parity_bta()
        assert not bta.is_empty()
        dead = BTA({"q"}, {"a"}, set(), {}, {"q"})
        assert dead.is_empty()
        assert dead.witness() is None

    def test_witness_smallest(self):
        bta = parity_bta()
        witness = bta.witness()
        assert witness is not None
        assert witness.size == 2
        assert bta.accepts(witness)

    def test_determinize_preserves_language(self):
        bta = parity_bta()
        det = bta.determinize()
        assert det.is_deterministic()
        for t in [
            bleaf("a"),
            BTree("a", bleaf("a"), None),
            BTree("a", bleaf("a"), bleaf("a")),
            BTree("a", BTree("a", bleaf("a"), None), bleaf("a")),
        ]:
            assert det.accepts(t) == bta.accepts(t)

    def test_complement(self):
        bta = parity_bta()
        comp = bta.complement()
        for t in [bleaf("a"), BTree("a", bleaf("a"), None)]:
            assert comp.accepts(t) != bta.accepts(t)

    def test_intersect(self):
        bta = parity_bta()
        singletons = BTA({"s"}, {"a"}, {"s"}, {"a": {("s", "s"): {"s"}}}, {"s"})
        both = intersect_bta(bta, singletons)
        assert both.accepts(BTree("a", bleaf("a"), None))
        assert not both.accepts(bleaf("a"))

    def test_union(self):
        only_leaf = BTA({"n", "f"}, {"a"}, {"n"}, {"a": {("n", "n"): {"f"}}}, {"f"})
        parity = parity_bta()
        u = union_bta(only_leaf, parity)
        assert u.accepts(bleaf("a"))  # from only_leaf
        assert u.accepts(BTree("a", bleaf("a"), None))  # from parity

    def test_trim(self):
        bta = BTA(
            {"n", "f", "junk"},
            {"a"},
            {"n"},
            {"a": {("n", "n"): {"f"}, ("junk", "junk"): {"junk"}}},
            {"f"},
        )
        trimmed = bta.trim()
        assert "junk" not in trimmed.states
        assert trimmed.accepts(bleaf("a"))

    def test_trim_keeps_right_children(self):
        bta = BTA({"n", "m", "f"}, {"a"}, {"n", "m"}, {"a": {("n", "m"): {"f"}}}, {"f"})
        trimmed = bta.trim()
        assert trimmed.states == {"n", "m", "f"}
        assert trimmed.accepts(bleaf("a"))

    def test_image_projection(self):
        bta = BTA({"n", "f"}, {("a", 1)}, {"n"}, {("a", 1): {("n", "n"): {"f"}}}, {"f"})
        projected = bta.image(lambda lab: lab[0])
        assert projected.accepts(bleaf("a"))

    def test_preimage_cylindrification(self):
        bta = BTA({"n", "f"}, {"a"}, {"n"}, {"a": {("n", "n"): {"f"}}}, {"f"})
        lifted = bta.preimage(lambda lab: lab[0], [("a", 0), ("a", 1)])
        assert lifted.accepts(bleaf(("a", 0)))
        assert lifted.accepts(bleaf(("a", 1)))

    def test_rejects_transition_label_outside_alphabet(self):
        # Emptiness reads the alphabet, membership the rules: a rule on
        # a foreign label would make them disagree.
        with pytest.raises(ValueError):
            BTA({0, 1}, {"a"}, {0}, {"b": {(0, 0): {1}}}, {1})

    def test_rejects_transition_states_outside_states(self):
        with pytest.raises(ValueError):
            BTA({0}, {"a"}, {0}, {"a": {(0, 0): {1}}}, {0})
        with pytest.raises(ValueError):
            BTA({0}, {"a"}, {0}, {"a": {(0, 1): {0}}}, {0})

    def test_relabelling_forgets_inhabitants_of_dropped_rules(self):
        bta = BTA({0, 1}, {"a", "b"}, {0}, {"a": {(0, 0): {1}}}, {1})
        assert bta.inhabited_states() == {0, 1}
        assert bta.restrict_alphabet({"b"}).inhabited_states() == {0}
        assert bta.preimage(lambda label: "b", {"c"}).inhabited_states() == {0}
        assert bta.restrict_alphabet({"a"}).inhabited_states() == {0, 1}

    def test_labels_share_one_class_table(self):
        table = {("n", "n"): {"f"}}
        bta = BTA(
            {"n", "f"},
            {"a", "b", "c", "d"},
            {"n"},
            {"a": table, "b": table, "c": {("n", "n"): {"f"}}},
            {"f"},
        )
        classes = [labels for labels, _table in bta.label_classes()]
        assert sorted(map(sorted, classes)) == [["a", "b", "c"], ["d"]]
        # The size still counts the entries of every label.
        assert bta.size == 2 + 3
        assert bta.targets("c", "n", "n") == {"f"}
        assert bta.targets("d", "n", "n") == frozenset()


def lists_nta():
    return nta_from_rules(
        alphabet={"list", "item"},
        rules={
            ("q0", "list"): "qi*",
            ("qi", "item"): "qt",
            ("qt", TEXT): "eps",
        },
        initial="q0",
    )


SAMPLES = [
    "list",
    'list(item("a"))',
    'list(item("a") item("b"))',
    "list(item)",
    "item",
    "list(list)",
    'list("loose")',
]


class TestNtaBtaConversions:
    def test_nta_to_bta_agrees_on_samples(self):
        nta = lists_nta()
        bta = nta_to_bta(nta)
        for source in SAMPLES:
            t = parse_tree(source)
            assert bta.accepts(encode_tree(t)) == nta.accepts(t), source

    def test_bta_to_nta_round_trip(self):
        nta = lists_nta()
        back = bta_to_nta(nta_to_bta(nta), sorted(nta.alphabet))
        for source in SAMPLES:
            t = parse_tree(source)
            assert back.accepts(t) == nta.accepts(t), source

    def test_valid_encoding_bta(self):
        valid = valid_encoding_bta(["a"])
        assert valid.accepts(encode_tree(parse_tree('a(a "x")')))
        # A hedge of two trees is not a single-tree encoding.
        assert not valid.accepts(encode_hedge((tree("a"), tree("a"))))
        # A text node with children is not a valid encoding.
        assert not valid.accepts(BTree(TEXT, bleaf("a"), None))

    def test_complement_nta(self):
        nta = lists_nta()
        comp = complement_nta(nta)
        for source in SAMPLES:
            t = parse_tree(source)
            assert comp.accepts(t) != nta.accepts(t), source

    def test_witness_not_in(self):
        nta = lists_nta()
        counter = nta_witness_not_in(nta)
        assert counter is not None
        assert not nta.accepts(counter)

    def test_no_witness_for_universal(self):
        assert nta_witness_not_in(universal_nta({"a"})) is None

    def test_empty_nta_converts(self):
        dead = nta_from_rules(alphabet={"a"}, rules={("q0", "a"): "qdead"}, initial="q0")
        assert nta_to_bta(dead).is_empty()


# -- the class-indexed kernel against the per-label kernel -----------------------
#
# The references below are the constructions of the per-label kernel that
# stored one table per label and regrouped labels on demand, rebuilt
# through the public constructor from an automaton's public view.


def per_label_rules(bta):
    """``label -> {(q_left, q_right): frozenset(targets)}`` for the
    labels with transitions."""
    rules = {}
    for label, q_left, q_right, target in bta.rules():
        rules.setdefault(label, {}).setdefault((q_left, q_right), set()).add(target)
    return {
        label: {pair: frozenset(targets) for pair, targets in table.items()}
        for label, table in rules.items()
    }


def reference_classes(bta):
    """Alphabet labels grouped by identical tables."""
    rules = per_label_rules(bta)
    groups, tables = {}, {}
    for label in bta.alphabet:
        table = rules.get(label, {})
        key = frozenset(table.items())
        groups.setdefault(key, []).append(label)
        tables[key] = table
    return [(tuple(labels), tables[key]) for key, labels in groups.items()]


def reference_inhabited(bta):
    inhabited = set(bta.leaf_states)
    tables = [table for _labels, table in reference_classes(bta)]
    changed = True
    while changed:
        changed = False
        for by_pair in tables:
            for (q_left, q_right), targets in by_pair.items():
                if q_left in inhabited and q_right in inhabited:
                    fresh = targets - inhabited
                    if fresh:
                        inhabited |= fresh
                        changed = True
    return frozenset(inhabited)


def reference_trim(bta):
    inhabited = reference_inhabited(bta)
    classes = reference_classes(bta)
    useful = set(bta.finals & inhabited)
    changed = True
    while changed:
        changed = False
        for _labels, by_pair in classes:
            for (q_left, q_right), targets in by_pair.items():
                if q_left not in inhabited or q_right not in inhabited:
                    continue
                if {q_left, q_right} <= useful:
                    continue
                if targets & useful:
                    useful.add(q_left)
                    useful.add(q_right)
                    changed = True
    transitions = {}
    for labels, by_pair in classes:
        new_table = {}
        for (q_left, q_right), targets in by_pair.items():
            if q_left not in useful or q_right not in useful:
                continue
            kept = {t for t in targets if t in useful}
            if kept:
                new_table[(q_left, q_right)] = kept
        if new_table:
            for label in labels:
                transitions[label] = new_table
    return BTA(
        useful or {"__dead__"},
        bta.alphabet,
        bta.leaf_states & useful,
        transitions,
        bta.finals & useful,
    )


def _subset_target(by_pair, left, right):
    result = set()
    if len(left) * len(right) <= len(by_pair):
        for q_left in left:
            for q_right in right:
                result |= by_pair.get((q_left, q_right), frozenset())
    else:
        for (q_left, q_right), targets in by_pair.items():
            if q_left in left and q_right in right:
                result |= targets
    return frozenset(result)


def reference_determinize(bta):
    nil = frozenset(bta.leaf_states)
    classes = reference_classes(bta)
    subsets = {nil}
    class_transitions = [{} for _ in classes]
    known_pairs = set()
    changed = True
    while changed:
        changed = False
        snapshot = list(subsets)
        for q_left in snapshot:
            for q_right in snapshot:
                for index, (_labels, table) in enumerate(classes):
                    key = (q_left, q_right, index)
                    if key in known_pairs:
                        continue
                    known_pairs.add(key)
                    target = _subset_target(table, q_left, q_right)
                    class_transitions[index][(q_left, q_right)] = {target}
                    if target not in subsets:
                        subsets.add(target)
                        changed = True
    transitions = {}
    for index, (labels, _table) in enumerate(classes):
        for label in labels:
            transitions[label] = class_transitions[index]
    finals = {s for s in subsets if s & bta.finals}
    return BTA(subsets, bta.alphabet, {nil}, transitions, finals)


def reference_minimize(det):
    states = sorted(det.states, key=repr)
    finals = det.finals
    block_of = {q: (1 if q in finals else 0) for q in states}
    unwrapped = [
        {pair: next(iter(targets)) for pair, targets in table.items() if targets}
        for _labels, table in reference_classes(det)
    ]
    changed = True
    while changed:
        signature = {}
        for q in states:
            sig = [block_of[q]]
            for table in unwrapped:
                for other in states:
                    t1 = table.get((q, other))
                    t2 = table.get((other, q))
                    sig.append(
                        (
                            block_of[t1] if t1 is not None else -1,
                            block_of[t2] if t2 is not None else -1,
                        )
                    )
            signature[q] = tuple(sig)
        sig_to_block = {}
        new_block_of = {}
        for q in states:
            new_block_of[q] = sig_to_block.setdefault(signature[q], len(sig_to_block))
        changed = len(sig_to_block) != len(set(block_of.values()))
        block_of = new_block_of
    transitions = {}
    for label, by_pair in per_label_rules(det).items():
        bucket = transitions.setdefault(label, {})
        for (q_left, q_right), targets in by_pair.items():
            bucket[(block_of[q_left], block_of[q_right])] = {block_of[next(iter(targets))]}
    return BTA(
        set(block_of.values()),
        det.alphabet,
        {block_of[q] for q in det.leaf_states},
        transitions,
        {block_of[q] for q in det.finals},
    )


def reference_intersect(left, right):
    alphabet = left.alphabet | right.alphabet
    leaf = set(itertools.product(left.leaf_states, right.leaf_states))
    left_class_of, left_tables = {}, []
    for index, (labels, table) in enumerate(reference_classes(left)):
        left_tables.append(table)
        for label in labels:
            left_class_of[label] = index
    right_class_of, right_tables = {}, []
    for index, (labels, table) in enumerate(reference_classes(right)):
        right_tables.append(table)
        for label in labels:
            right_class_of[label] = index
    pair_labels = {}
    for label in alphabet:
        l_class = left_class_of.get(label)
        r_class = right_class_of.get(label)
        if l_class is None or r_class is None:
            continue
        if not left_tables[l_class] or not right_tables[r_class]:
            continue
        pair_labels.setdefault((l_class, r_class), []).append(label)

    def position_indices(table):
        by_first, by_second = {}, {}
        for pair, targets in table.items():
            by_first.setdefault(pair[0], []).append((pair, targets))
            by_second.setdefault(pair[1], []).append((pair, targets))
        return by_first, by_second

    l_indices, r_indices = {}, {}
    for (l_class, r_class) in pair_labels:
        if l_class not in l_indices:
            l_indices[l_class] = position_indices(left_tables[l_class])
        if r_class not in r_indices:
            r_indices[r_class] = position_indices(right_tables[r_class])
    states = set(leaf)
    buckets = {key: {} for key in pair_labels}
    work = list(leaf)
    while work:
        new_l, new_r = work.pop()
        for (l_class, r_class), bucket in buckets.items():
            l_first, l_second = l_indices[l_class]
            r_first, r_second = r_indices[r_class]
            for position in (0, 1):
                l_candidates = (l_first if position == 0 else l_second).get(new_l, ())
                if not l_candidates:
                    continue
                r_candidates = (r_first if position == 0 else r_second).get(new_r, ())
                if not r_candidates:
                    continue
                for (l1, l2), l_targets in l_candidates:
                    for (r1, r2), r_targets in r_candidates:
                        if position == 0:
                            if (l2, r2) not in states:
                                continue
                        else:
                            if (l1, r1) not in states:
                                continue
                        targets = bucket.setdefault(((l1, r1), (l2, r2)), set())
                        for lt in l_targets:
                            for rt in r_targets:
                                combo = (lt, rt)
                                if combo not in targets:
                                    targets.add(combo)
                                    if combo not in states:
                                        states.add(combo)
                                        work.append(combo)
    transitions = {}
    for key, labels in pair_labels.items():
        for label in labels:
            transitions[label] = buckets[key]
    finals = {(l, r) for (l, r) in states if l in left.finals and r in right.finals}
    return BTA(states, alphabet, leaf, transitions, finals)


def reference_image(bta, fn):
    transitions = {}
    for label, by_pair in per_label_rules(bta).items():
        bucket = transitions.setdefault(fn(label), {})
        for pair, targets in by_pair.items():
            bucket.setdefault(pair, set()).update(targets)
    return BTA(bta.states, {fn(a) for a in bta.alphabet}, bta.leaf_states, transitions, bta.finals)


def reference_restrict_alphabet(bta, alphabet):
    keep = frozenset(alphabet)
    transitions = {
        label: {pair: set(targets) for pair, targets in by_pair.items()}
        for label, by_pair in per_label_rules(bta).items()
        if label in keep
    }
    return BTA(bta.states, keep, bta.leaf_states, transitions, bta.finals)


def reference_rename_states(bta, prefix):
    names = {q: (prefix, i) for i, q in enumerate(sorted(bta.states, key=repr))}
    transitions = {
        label: {
            (names[q_left], names[q_right]): {names[t] for t in targets}
            for (q_left, q_right), targets in by_pair.items()
        }
        for label, by_pair in per_label_rules(bta).items()
    }
    return BTA(
        names.values(),
        bta.alphabet,
        {names[q] for q in bta.leaf_states},
        transitions,
        {names[q] for q in bta.finals},
    )


def reference_union(left, right):
    left = reference_rename_states(left, "L")
    right = reference_rename_states(right, "R")
    transitions = {}
    for source in (left, right):
        for label, by_pair in per_label_rules(source).items():
            bucket = transitions.setdefault(label, {})
            for pair, targets in by_pair.items():
                bucket.setdefault(pair, set()).update(targets)
    return BTA(
        left.states | right.states,
        left.alphabet | right.alphabet,
        left.leaf_states | right.leaf_states,
        transitions,
        left.finals | right.finals,
    )


def reference_complement(bta):
    det = reference_minimize(reference_determinize(bta))
    return BTA(
        det.states, det.alphabet, det.leaf_states, per_label_rules(det), det.states - det.finals
    )


def reference_preimage(bta, fn, new_alphabet):
    rules = per_label_rules(bta)
    transitions = {}
    for label in new_alphabet:
        source = rules.get(fn(label))
        if source:
            transitions[label] = {pair: set(targets) for pair, targets in source.items()}
    return BTA(bta.states, new_alphabet, bta.leaf_states, transitions, bta.finals)


def small_btrees(labels, max_size=3):
    """Every binary tree over ``labels`` with at most ``max_size`` nodes."""
    by_size = {0: [None]}
    for size in range(1, max_size + 1):
        by_size[size] = [
            BTree(label, left, right)
            for left_size in range(size)
            for left in by_size[left_size]
            for right in by_size[size - 1 - left_size]
            for label in labels
        ]
    return [t for size in range(1, max_size + 1) for t in by_size[size]]


def assert_same_automaton(kernel, reference, trees):
    assert kernel.states == reference.states
    assert kernel.alphabet == reference.alphabet
    assert kernel.leaf_states == reference.leaf_states
    assert kernel.finals == reference.finals
    assert set(kernel.rules()) == set(reference.rules())
    assert kernel.size == reference.size
    # Constructions may record their inhabited states instead of
    # computing them; the record must match the fixpoint.
    assert kernel.inhabited_states() == reference_inhabited(reference)
    # The class map covers exactly the alphabet; every class is used and
    # has a table of its own.
    classes = kernel.label_classes()
    members = [label for labels, _table in classes for label in labels]
    assert len(members) == len(kernel.alphabet) and set(members) == kernel.alphabet
    assert all(labels for labels, _table in classes)
    tables = {frozenset(table.items()) for _labels, table in classes}
    assert len(tables) == len(classes)
    for t in trees:
        assert kernel.accepts(t) == reference.accepts(t), t


MARK_VARIABLES = ("x", "y", "z")
BTA_STATES = [("q", i) for i in range(4)]


@st.composite
def marked_alphabets(draw, variables=None):
    """``marked_alphabet`` over 2-4 base labels (plus text) and 2-3 mark
    variables: 12 to 40 labels."""
    bases = ("a", "b", "c", "d")[: draw(st.integers(min_value=2, max_value=4))]
    if variables is None:
        variables = MARK_VARIABLES[: draw(st.integers(min_value=2, max_value=3))]
    return marked_alphabet(bases, variables)


@st.composite
def class_btas(draw, alphabet):
    """BTAs over ``alphabet`` whose labels draw from a few tables: some
    share one table object, some get an equal copy, some have none."""
    states = BTA_STATES[: draw(st.integers(min_value=2, max_value=4))]
    state = st.sampled_from(states)
    table = st.dictionaries(
        st.tuples(state, state), st.sets(state, max_size=2), min_size=1, max_size=5
    )
    shared = draw(st.lists(table, min_size=1, max_size=4))
    transitions = {}
    for label in alphabet:
        pick = draw(st.integers(min_value=-1, max_value=len(shared) - 1))
        if pick < 0:
            continue
        if draw(st.booleans()):
            transitions[label] = shared[pick]
        else:
            transitions[label] = {pair: set(targets) for pair, targets in shared[pick].items()}
    leaf_states = draw(st.sets(state, min_size=1))
    return BTA(states, alphabet, leaf_states, transitions, draw(st.sets(state, min_size=1)))


def maybe_cached(data, bta):
    """``bta``, half the time with its inhabited states computed, so
    that the constructions carrying them over are checked too."""
    if data.draw(st.booleans()):
        bta.inhabited_states()
    return bta


def tree_labels(data, alphabet):
    """One to three labels to build the checked trees from."""
    labels = st.sampled_from(sorted(alphabet, key=repr))
    return data.draw(st.lists(labels, min_size=1, max_size=3, unique=True))


KERNEL_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestClassIndexedKernel:
    """Each construction equals its per-label reference: the same
    states, leaf and final states and rule set, and the same verdict on
    every small tree."""

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_determinize_and_minimize(self, data):
        alphabet = data.draw(marked_alphabets())
        bta = data.draw(class_btas(alphabet))
        trees = small_btrees(tree_labels(data, alphabet))
        det = bta.determinize()
        assert_same_automaton(det, reference_determinize(bta), trees)
        assert_same_automaton(minimize_dbta(det), reference_minimize(det), trees)
        complement = bta.complement()
        assert_same_automaton(complement, reference_complement(bta), trees)
        for t in trees:
            assert complement.accepts(t) != bta.accepts(t)

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_trim(self, data):
        alphabet = data.draw(marked_alphabets())
        bta = data.draw(class_btas(alphabet))
        trees = small_btrees(tree_labels(data, alphabet))
        assert bta.inhabited_states() == reference_inhabited(bta)
        trimmed = bta.trim()
        assert_same_automaton(trimmed, reference_trim(bta), trees)
        assert trimmed.inhabited_states() == reference_inhabited(trimmed)

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_intersect(self, data):
        alphabet = data.draw(marked_alphabets())
        left = data.draw(class_btas(alphabet))
        right = data.draw(class_btas(alphabet))
        trees = small_btrees(tree_labels(data, alphabet))
        product = intersect_bta(left, right)
        assert_same_automaton(product, reference_intersect(left, right), trees)
        assert product.inhabited_states() == reference_inhabited(product)

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_image_erases_a_mark(self, data):
        alphabet = data.draw(marked_alphabets())
        bta = maybe_cached(data, data.draw(class_btas(alphabet)))
        var = data.draw(st.sampled_from(sorted({v for _base, marks in alphabet for v in marks})))

        def erase(label):
            return (label[0], label[1] - {var})

        image = bta.image(erase)
        trees = small_btrees(tree_labels(data, image.alphabet))
        assert_same_automaton(image, reference_image(bta, erase), trees)

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_preimage_adds_a_mark(self, data):
        alphabet = data.draw(marked_alphabets(variables=MARK_VARIABLES[:2]))
        bta = maybe_cached(data, data.draw(class_btas(alphabet)))
        kept = frozenset(MARK_VARIABLES[:2])
        # The base label "e" is new: its images have no transitions.
        bases = {base for base, _marks in alphabet} - {TEXT}
        new_alphabet = marked_alphabet(sorted(bases | {"e"}), MARK_VARIABLES)

        def erase(label):
            return (label[0], label[1] & kept)

        lifted = bta.preimage(erase, new_alphabet)
        trees = small_btrees(tree_labels(data, new_alphabet))
        assert_same_automaton(lifted, reference_preimage(bta, erase, new_alphabet), trees)

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_restrict_alphabet(self, data):
        alphabet = data.draw(marked_alphabets())
        bta = maybe_cached(data, data.draw(class_btas(alphabet)))
        keep = data.draw(st.sets(st.sampled_from(sorted(alphabet, key=repr)), min_size=1))
        # Drop every label of one class, so that its rules are gone.
        classes = [labels for labels, table in reference_classes(bta) if table]
        if classes:
            keep -= set(data.draw(st.sampled_from(classes)))
        # A kept label outside the alphabet gets no transitions.
        if not keep or data.draw(st.booleans()):
            keep.add(("e", frozenset()))
        restricted = bta.restrict_alphabet(keep)
        trees = small_btrees(tree_labels(data, keep))
        assert_same_automaton(restricted, reference_restrict_alphabet(bta, keep), trees)

    @given(data=st.data())
    @KERNEL_SETTINGS
    def test_union_and_rename(self, data):
        # The two sides may have different alphabets.
        left = maybe_cached(data, data.draw(class_btas(data.draw(marked_alphabets()))))
        right = maybe_cached(data, data.draw(class_btas(data.draw(marked_alphabets()))))
        trees = small_btrees(tree_labels(data, left.alphabet | right.alphabet))
        assert_same_automaton(left.rename_states("L"), reference_rename_states(left, "L"), trees)
        assert_same_automaton(union_bta(left, right), reference_union(left, right), trees)
