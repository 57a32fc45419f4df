"""Seeded inputs of the three workloads.

Every generator takes a ``random.Random`` (or an integer sub-seed) and
builds fresh transducer and schema objects on each call: the dataflow
pre-filter memoizes summaries by object identity, so reusing objects
would hide work.

The Example 4.2 output type (Figure 2) and the E12 select pair are
restated here rather than imported from the test suite or the paper
benches, so the benchmark depends on the library only.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
from typing import Dict, Iterator, List, Tuple

from repro.automata.nta import NTA
from repro.core import Call, DTLTransducer, TopDownTransducer
from repro.schema import DTD, dtd_to_nta
from repro.workloads.families import random_schema, random_topdown, wide_instance

# -- ptime ---------------------------------------------------------------------

PTIME_LABELS = ("a", "b", "c", "d")
PTIME_STATES = 5
WIDE_SIZES = (6, 8, 10, 12)
#: The classified input pools (see make_pool.py).
POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools.json")
#: One ptime round: PREFILTERED pairs the dataflow pre-filter decides,
#: one full preserving pair, one unsafe pair from each of UNSAFE_BANDS
#: work bands, and one wide_instance(n), in seeded order.  Fixed shares
#: keep the latency mix of a run the same for every seed: the median
#: falls among pre-filtered pairs, the tail among unsafe ones.
PREFILTERED = 22
UNSAFE_BANDS = 10
PTIME_ROUND = PREFILTERED + 1 + UNSAFE_BANDS + 1


def _load_pool(name: str) -> list:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


def _bands(entries: List[Tuple[int, int]], count: int) -> List[List[int]]:
    """Sub-seeds of ``(work, sub_seed)`` entries in ``count`` bands of
    increasing work."""
    ordered = sorted(entries)
    return [[seed for _work, seed in ordered[len(ordered) * band // count:
                                             len(ordered) * (band + 1) // count]]
            for band in range(count)]


def _pool_strata() -> List[List[int]]:
    """The ptime pool's sub-seeds as strata: pre-filtered, full
    preserving, then the unsafe pairs in UNSAFE_BANDS work bands."""
    pairs = _load_pool("ptime")
    by_class = {name: [(work, seed) for seed, cls, work in pairs if cls == name]
                for name in "ABC"}
    return ([[seed for _work, seed in by_class["A"]], [seed for _work, seed in by_class["B"]]]
            + _bands(by_class["C"], UNSAFE_BANDS))


def ptime_specs(seed: int) -> Iterator[Tuple[str, int]]:
    """The ptime inputs, endless, in rounds of PTIME_ROUND:
    ``("random", sub_seed)`` pool pairs and ``("wide", n)``.  The pool is
    read before the first input is asked for."""
    rng = random.Random(seed)
    prefiltered, preserving, *bands = _pool_strata()

    def rounds() -> Iterator[Tuple[str, int]]:
        for round_index in itertools.count():
            specs = [("random", rng.choice(prefiltered)) for _ in range(PREFILTERED)]
            specs.append(("random", rng.choice(preserving)))
            specs += [("random", rng.choice(band)) for band in bands]
            specs.append(("wide", WIDE_SIZES[round_index % len(WIDE_SIZES)]))
            rng.shuffle(specs)
            yield from specs

    return rounds()


def ptime_pair(spec: Tuple[str, int]) -> Tuple[TopDownTransducer, NTA]:
    kind, value = spec
    if kind == "wide":
        return wide_instance(value)
    rng = random.Random(value)
    transducer = random_topdown(rng, PTIME_LABELS, PTIME_STATES)
    return transducer, random_schema(rng, PTIME_LABELS, PTIME_STATES)


# -- exptime -------------------------------------------------------------------


def example23_schema() -> NTA:
    from repro.paper import example23_dtd

    return dtd_to_nta(example23_dtd())


def figure2_dtd() -> DTD:
    """The natural output type of Example 4.2 (Figure 2)."""
    return DTD(
        content={
            "recipes": "recipe*",
            "recipe": "description . ingredients . instructions",
            "description": "text",
            "ingredients": "text*",
            "instructions": "(br + text)*",
            "br": "eps",
        },
        start={"recipes"},
    )


def abridged_schema() -> NTA:
    """The four-label recipe schema of the E12 crossover bench."""
    return dtd_to_nta(DTD(
        content={
            "recipes": "recipe*",
            "recipe": "description . comments",
            "description": "text",
            "comments": "text*",
        },
        start={"recipes"},
    ))


def select_topdown() -> TopDownTransducer:
    """Keep descriptions, drop comments: Example 4.2's core."""
    return TopDownTransducer(
        states={"q0", "qsel", "q"},
        rules={
            ("q0", "recipes"): "recipes(q0)",
            ("q0", "recipe"): "recipe(qsel)",
            ("qsel", "description"): "description(q)",
            ("q", "text"): "text",
        },
        initial="q0",
    )


def select_dtl() -> DTLTransducer:
    """The same transformation in DTL^XPath."""
    return DTLTransducer(
        states={"q0", "q"},
        sigma_rules=[
            ("q0", "recipes", ("recipes", [Call("q0", "down")])),
            ("q0", "recipe", ("recipe", [Call("q0", "down")])),
            ("q0", "description", ("description", [Call("q", "down")])),
        ],
        text_states={"q"},
        initial="q0",
    )


TYPECHECK_LABELS = ("a", "b", "c")
_CONTENT_SHAPES = ("(%s + %s + text)*", "(%s + text)*", "%s* . text*", "text*", "(%s + %s)*")


def typecheck_instance(sub_seed: int) -> Tuple[TopDownTransducer, NTA, DTD]:
    """A small random typecheck instance: random_topdown over three
    labels, random_schema, and a random output DTD over every label
    the transducer can emit (so the label-flow short-circuit never
    decides it)."""
    rng = random.Random(sub_seed)
    transducer = random_topdown(rng, TYPECHECK_LABELS, 3)
    schema = random_schema(rng, TYPECHECK_LABELS, 3)
    labels = sorted(set(TYPECHECK_LABELS) | set(transducer.alphabet))
    content: Dict[str, str] = {}
    for label in labels:
        first, second = rng.sample(labels, 2)
        shape = rng.choice(_CONTENT_SHAPES)
        content[label] = shape % (first, second)[: shape.count("%s")]
    return transducer, schema, DTD(content=content, start=set(labels))


#: The small typechecks of one exptime round: TYPECHECK_BANDS work
#: bands of the pool, PER_BAND instances from each.
TYPECHECK_BANDS = 30
PER_BAND = 10
TYPECHECKS_PER_ROUND = TYPECHECK_BANDS * PER_BAND


def exptime_specs(seed: int) -> Iterator[Tuple[str, int]]:
    """Endless rounds of Example 4.2 against Figure 2, half of the
    TYPECHECKS_PER_ROUND pool typecheck instances, the E12 DTL select
    pair, and the other half.  The seed picks and orders the small
    instances; the two large decisions keep their places, so the heap
    they leave behind is the same in every run."""
    rng = random.Random(seed)
    bands = _bands([(work, sub_seed) for sub_seed, work in _load_pool("typecheck")],
                   TYPECHECK_BANDS)

    def rounds() -> Iterator[Tuple[str, int]]:
        half = TYPECHECKS_PER_ROUND // 2
        while True:
            small = [("typecheck", rng.choice(band)) for band in bands for _ in range(PER_BAND)]
            rng.shuffle(small)
            yield from [("example42", 0)] + small[:half] + [("dtl_select", 0)] + small[half:]

    return rounds()


# -- audit ---------------------------------------------------------------------

#: Example corpus files copied into every generated corpus.
EXAMPLE_FILES = (
    "broken.tdx", "duplicate.tdx", "identity.tdx", "recipes.schema",
    "select.tdx", "swap_comments.tdx",
)
EXAMPLE_JOBS = (
    "select.tdx recipes.schema",
    "identity.tdx recipes.schema",
    "duplicate.tdx recipes.schema",
    "swap_comments.tdx recipes.schema",
    "select.tdx recipes.schema comment",
    "broken.tdx recipes.schema",
)
#: The generated transducers: every kind in VARIANTS structural
#: variants, the same set for every seed, so the corpus work is the same
#: mix of safe, copying and rearranging jobs whatever the seed.  The
#: seed names the states, orders the requests and picks the pairs.
AUDIT_KINDS = ("select", "copy_recipe", "swap_comments", "copy_items")
VARIANTS = 3
CONTENT_LABELS = ("description", "ingredients", "instructions")


def audit_transducer(rng: random.Random, kind: str, variant: int) -> str:
    """The text of one generated transducer over the recipes schema.
    Every kind and variant finishes its corpus job (including the §7
    sub-schema) in well under a second."""
    sel, txt, pos, neg = ("%s%03d" % (prefix, rng.randrange(1000))
                          for prefix in ("sel", "txt", "pos", "neg"))
    recipe = "recipe(%s %s)" % (sel, sel) if kind == "copy_recipe" else "recipe(%s)" % sel
    lines = ["initial q0", "rule q0 recipes -> recipes(q0)", "rule q0 recipe -> %s" % recipe]
    for index, label in enumerate(CONTENT_LABELS):
        rhs = txt if index == variant else "%s(%s)" % (label, txt)
        lines.append("rule %s %s -> %s" % (sel, label, rhs))
    if kind == "swap_comments":
        lines += ["rule %s comments -> comments(%s %s)" % (sel, pos, neg),
                  "rule %s positive -> positive(%s)" % (pos, txt),
                  "rule %s negative -> negative(%s)" % (neg, txt)]
    elif variant:
        lines += ["rule %s comments -> comments(%s)" % (sel, txt),
                  "rule %s positive -> positive(%s)" % (txt, txt),
                  "rule %s negative -> negative(%s)" % (txt, txt)]
    item = "item(%s %s)" % (txt, txt) if kind == "copy_items" else (
        txt if variant % 2 else "item(%s)" % txt)
    lines += ["rule %s item -> %s" % (txt, item),
              "rule %s br -> %s" % (txt, "br" if variant == 2 else "br(%s)" % txt),
              "rule %s comment -> comment(%s)" % (txt, txt),
              "text %s" % txt]
    return "\n".join(lines) + "\n"


def write_audit_corpus(seed: int, directory: str, example_dir: str) -> Dict[str, List[str]]:
    """Write the example corpus plus every generated kind and variant
    into ``directory`` with one manifest; returns the transducer names
    by kind, variants in order (the example files under
    ``"example_safe"`` and ``"example_unsafe"``)."""
    rng = random.Random(seed)
    os.makedirs(directory, exist_ok=True)
    for name in EXAMPLE_FILES:
        shutil.copyfile(os.path.join(example_dir, name), os.path.join(directory, name))
    by_kind: Dict[str, List[str]] = {
        "example_safe": ["select.tdx", "identity.tdx"],
        "example_unsafe": ["duplicate.tdx", "swap_comments.tdx"],
    }
    lines = list(EXAMPLE_JOBS)
    for kind in AUDIT_KINDS:
        for variant in range(VARIANTS):
            name = "%s-%d-%04d.tdx" % (kind, variant, rng.randrange(10000))
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(audit_transducer(rng, kind, variant))
            by_kind.setdefault(kind, []).append(name)
            lines.append("%s recipes.schema" % name)
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return by_kind
