"""The fixpoint pass manager over the transducer rule graph.

The *rule graph* has one node per ``(state, input label)`` event and
one edge per state reference on a rule's right-hand-side frontier.
Every analysis here is a monotone pass over that graph — values only
grow along a finite lattice — so all of them share one chaotic-
iteration :class:`Worklist` engine and terminate in polynomial time.

Passes are registered as :class:`PassSpec` entries with explicit
dependencies; :func:`run_passes` closes a selection under those
dependencies and executes the passes in registry order, folding their
results into one immutable :class:`DataflowSummary`.

The summaries double as *sound pre-filters* for the paper's decision
procedures (see :mod:`repro.core.topdown_analysis` and
:mod:`repro.core.typecheck`): a summary may prove an answer early
("definitely safe" / "definitely reachable") or shrink the state space
a product construction enumerates, but it never changes a verdict —
``--no-prefilter`` must yield byte-identical findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from ... import obs
from ...automata.nta import NTA, TEXT
from ...core.topdown import TopDownTransducer
from .config import prefilter_enabled

__all__ = [
    "Rule",
    "SchemaState",
    "Worklist",
    "RuleGraph",
    "PassStats",
    "PassSpec",
    "SummaryBuilder",
    "DataflowSummary",
    "register_pass",
    "pass_names",
    "dependency_closure",
    "run_passes",
    "analyze",
    "resolve_prefilter",
    "log_skip",
    "clear_cache",
]

#: A transducer rule key: ``(state, input label)``; text rules use
#: the label ``"text"``.
Rule = Tuple[str, str]

#: A schema (NTA) state — opaque to the passes.
SchemaState = Hashable

T = TypeVar("T", bound=Hashable)


class Worklist(Generic[T]):
    """The one chaotic-iteration engine shared by every pass.

    A LIFO worklist with membership dedup: pushing an item already on
    the list is a no-op, so each lattice change enqueues its dependents
    at most once until the next pop.  ``pops`` counts iterations for
    the pass statistics.
    """

    __slots__ = ("_stack", "_member", "pops")

    def __init__(self, items: Iterable[T] = ()) -> None:
        self._stack: List[T] = []
        self._member: Set[T] = set()
        self.pops: int = 0
        for item in items:
            self.push(item)

    def push(self, item: T) -> None:
        if item not in self._member:
            self._member.add(item)
            self._stack.append(item)

    def pop(self) -> T:
        item = self._stack.pop()
        self._member.discard(item)
        self.pops += 1
        return item

    def __bool__(self) -> bool:
        return bool(self._stack)

    def __len__(self) -> int:
        return len(self._stack)


class RuleGraph:
    """The static inputs every pass reads: the transducer, the schema
    NTA, and the per-schema-state label sets of completable documents
    (the Lemma 4.8 ingredient shared with the lint engine)."""

    __slots__ = ("transducer", "nta", "_labels_of")

    def __init__(self, transducer: TopDownTransducer, nta: NTA) -> None:
        self.transducer = transducer
        self.nta = nta
        self._labels_of: Optional[Dict[SchemaState, Set[str]]] = None

    def labels_of(self) -> Dict[SchemaState, Set[str]]:
        """``schema state -> labels`` (including ``text``) that can occur
        at a node in that state inside a completable valid document."""
        if self._labels_of is None:
            labels: Dict[SchemaState, Set[str]] = {}
            inhabited = self.nta.inhabited_states()
            for (schema_state, symbol), horizontal in self.nta.delta.items():
                if schema_state not in inhabited:
                    continue
                if symbol == TEXT:
                    if horizontal.accepts_empty_word():
                        labels.setdefault(schema_state, set()).add(TEXT)
                elif horizontal.accepts_empty_word() or horizontal.accepts_some_over(inhabited):
                    labels.setdefault(schema_state, set()).add(symbol)
            self._labels_of = labels
        return self._labels_of


@dataclass(frozen=True)
class PassStats:
    """Work counters of one pass run (exact, wall-time free)."""

    name: str
    iterations: int  # worklist pops
    visited: int  # distinct nodes touched
    facts: int  # derived facts recorded in the summary


@dataclass(frozen=True)
class PassSpec:
    """One registry entry: a stable pass name, its dependencies, and
    the transfer-function driver."""

    name: str
    requires: Tuple[str, ...]
    run: Callable[[RuleGraph, "SummaryBuilder"], PassStats]
    description: str = ""


@dataclass
class SummaryBuilder:
    """Mutable accumulator the passes write into; frozen into a
    :class:`DataflowSummary` by :func:`run_passes`."""

    graph: RuleGraph
    # reachability
    configs: Set[Tuple[str, SchemaState]] = field(default_factory=set)
    realizable: Set[Rule] = field(default_factory=set)
    uncovered: Dict[Rule, SchemaState] = field(default_factory=dict)
    text_drops: Dict[str, SchemaState] = field(default_factory=dict)
    frontiers: Dict[Rule, Tuple[str, ...]] = field(default_factory=dict)
    schema_reachable_states: Set[str] = field(default_factory=set)
    unreachable_under_schema: Set[str] = field(default_factory=set)
    uncovered_root_labels: Set[str] = field(default_factory=set)
    # copy-degree
    text_productive: Set[str] = field(default_factory=set)
    copy_degree: Dict[Rule, int] = field(default_factory=dict)
    amplifying_rules: Dict[Rule, Tuple[str, int]] = field(default_factory=dict)
    max_copy_degree: int = 0
    copy_free: bool = False
    # label-flow
    emits: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    rule_output_labels: Dict[Rule, FrozenSet[str]] = field(default_factory=dict)
    output_labels: FrozenSet[str] = frozenset()
    # text-flow
    inversion_sites: Tuple[Tuple[Rule, Tuple[str, str]], ...] = ()
    order_safe: bool = False
    # dead/shadowed rules
    dead_rules: Tuple[Rule, ...] = ()
    silent_states: Set[str] = field(default_factory=set)
    vacuous_rules: Tuple[Rule, ...] = ()
    # bookkeeping
    _mentions: Optional[Dict[str, Tuple[Rule, ...]]] = None

    def mentions(self) -> Dict[str, Tuple[Rule, ...]]:
        """Reverse rule-graph index: ``state -> realizable rules whose
        frontier mentions it`` (the dependents map of the backward
        passes).  Requires the reachability pass."""
        if self._mentions is None:
            index: Dict[str, List[Rule]] = {}
            # Deterministic order throughout: the backward passes count
            # worklist pops as their `iterations` stat, and those counts
            # must be reproducible across hash seeds for the exact
            # counter comparisons of the bench-regression gate.
            for rule, frontier in self.frontiers.items():
                for state in sorted(set(frontier)):
                    index.setdefault(state, []).append(rule)
            self._mentions = {state: tuple(rules) for state, rules in index.items()}
        return self._mentions


@dataclass(frozen=True)
class DataflowSummary:
    """The immutable result of a pass-manager run.

    Every field is an *exact* fact about runs on valid documents where
    the docstring says so, and a sound over-approximation otherwise;
    the two boolean pay-off flags (:attr:`copy_free`, :attr:`order_safe`)
    only ever claim safety — they are never set on an unsafe pair.
    """

    passes: Tuple[str, ...]
    stats: Mapping[str, PassStats]
    # -- reachability (exact: the Lemma 4.8 configuration product) ------
    configs: FrozenSet[Tuple[str, SchemaState]]
    realizable: FrozenSet[Rule]
    uncovered: Mapping[Rule, SchemaState]
    text_drops: Mapping[str, SchemaState]
    frontiers: Mapping[Rule, Tuple[str, ...]]
    schema_reachable_states: FrozenSet[str]
    unreachable_under_schema: FrozenSet[str]
    uncovered_root_labels: FrozenSet[str]
    # -- copy-degree (over-approximation; saturated at 2 == omega) ------
    text_productive: FrozenSet[str]
    copy_degree: Mapping[Rule, int]
    amplifying_rules: Mapping[Rule, Tuple[str, int]]
    max_copy_degree: int
    copy_free: bool
    # -- label-flow (over-approximation of emittable output labels) -----
    emits: Mapping[str, FrozenSet[str]]
    rule_output_labels: Mapping[Rule, FrozenSet[str]]
    output_labels: FrozenSet[str]
    # -- text-flow ------------------------------------------------------
    inversion_sites: Tuple[Tuple[Rule, Tuple[str, str]], ...]
    order_safe: bool
    # -- dead/shadowed rules (exact) ------------------------------------
    dead_rules: Tuple[Rule, ...]
    silent_states: FrozenSet[str]
    vacuous_rules: Tuple[Rule, ...]

    def has_pass(self, name: str) -> bool:
        return name in self.passes

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """Per-pass work counters as plain JSON-ready dicts."""
        return {
            name: {
                "iterations": stat.iterations,
                "visited": stat.visited,
                "facts": stat.facts,
            }
            for name, stat in sorted(self.stats.items())
        }


# ---------------------------------------------------------------------------
# Registry and driver
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, PassSpec] = {}
_ORDER: List[str] = []


def register_pass(spec: PassSpec) -> PassSpec:
    """Register a pass (module import time); registry order is pipeline
    order, so a pass must be registered after its dependencies."""
    for requirement in spec.requires:
        if requirement not in _REGISTRY:
            raise ValueError(
                "pass %r requires unregistered pass %r" % (spec.name, requirement)
            )
    if spec.name in _REGISTRY:
        raise ValueError("duplicate pass name %r" % (spec.name,))
    _REGISTRY[spec.name] = spec
    _ORDER.append(spec.name)
    return spec


def pass_names() -> Tuple[str, ...]:
    """All registered pass names, in pipeline order."""
    _ensure_passes_loaded()
    return tuple(_ORDER)


def dependency_closure(selected: Iterable[str]) -> Tuple[str, ...]:
    """The selection closed under ``requires``, in pipeline order.
    Unknown names raise ``ValueError`` naming the valid set."""
    _ensure_passes_loaded()
    wanted: Set[str] = set()
    worklist: Worklist[str] = Worklist()
    for name in selected:
        if name not in _REGISTRY:
            raise ValueError(
                "unknown dataflow pass %r; valid passes: %s"
                % (name, ", ".join(_ORDER))
            )
        worklist.push(name)
    while worklist:
        name = worklist.pop()
        if name in wanted:
            continue
        wanted.add(name)
        for requirement in _REGISTRY[name].requires:
            worklist.push(requirement)
    return tuple(name for name in _ORDER if name in wanted)


def _ensure_passes_loaded() -> None:
    if not _REGISTRY:
        from . import passes as _passes  # noqa: F401  (registration side effect)


def run_passes(
    transducer: TopDownTransducer,
    nta: NTA,
    passes: Optional[Iterable[str]] = None,
) -> DataflowSummary:
    """Run the selected passes (default: all) plus their dependencies
    over the rule graph and return the folded summary."""
    _ensure_passes_loaded()
    if passes is None:
        selected = tuple(_ORDER)
    else:
        selected = dependency_closure(passes)
    if "reachability" not in selected:
        # Every consumer needs the configuration product; the closure
        # of any non-empty selection contains it, but an empty
        # selection must still produce a usable summary.
        selected = dependency_closure(list(selected) + ["reachability"])
    graph = RuleGraph(transducer, nta)
    builder = SummaryBuilder(graph=graph)
    stats: Dict[str, PassStats] = {}
    with obs.span("dataflow.analyze") as span:
        for name in selected:
            spec = _REGISTRY[name]
            with obs.span("dataflow.pass") as pass_span:
                pass_span.set("pass", name)
                stat = spec.run(graph, builder)
            stats[name] = stat
            if obs.enabled():
                obs.add("dataflow.pass.%s.iterations" % name, stat.iterations)
                obs.add("dataflow.pass.%s.visited" % name, stat.visited)
                obs.add("dataflow.pass.%s.facts" % name, stat.facts)
                # Cross-pass aggregates with per-pass attribution: the
                # flat totals sum over passes, the labels say which
                # pass the work belongs to.
                obs.add("dataflow.pass.iterations", stat.iterations,
                        **{"pass": name, "site": "run_passes"})
                obs.add("dataflow.pass.visited", stat.visited,
                        **{"pass": name, "site": "run_passes"})
                obs.add("dataflow.pass.facts", stat.facts,
                        **{"pass": name, "site": "run_passes"})
        if obs.enabled():
            obs.add("dataflow.passes_run", len(selected))
            span.set("passes", len(selected))
            span.set("configs", len(builder.configs))
    return DataflowSummary(
        passes=selected,
        stats=stats,
        configs=frozenset(builder.configs),
        realizable=frozenset(builder.realizable),
        uncovered=dict(builder.uncovered),
        text_drops=dict(builder.text_drops),
        frontiers=dict(builder.frontiers),
        schema_reachable_states=frozenset(builder.schema_reachable_states),
        unreachable_under_schema=frozenset(builder.unreachable_under_schema),
        uncovered_root_labels=frozenset(builder.uncovered_root_labels),
        text_productive=frozenset(builder.text_productive),
        copy_degree=dict(builder.copy_degree),
        amplifying_rules=dict(builder.amplifying_rules),
        max_copy_degree=builder.max_copy_degree,
        copy_free=builder.copy_free,
        emits=dict(builder.emits),
        rule_output_labels=dict(builder.rule_output_labels),
        output_labels=builder.output_labels,
        inversion_sites=builder.inversion_sites,
        order_safe=builder.order_safe,
        dead_rules=builder.dead_rules,
        silent_states=frozenset(builder.silent_states),
        vacuous_rules=builder.vacuous_rules,
    )


# ---------------------------------------------------------------------------
# Memoized front door + pre-filter resolution
# ---------------------------------------------------------------------------

#: Full-pipeline summaries keyed by input object identity.  The inputs
#: are immutable once constructed ("editing a rule" builds a new
#: transducer), so identity is a sound cache key; the cached inputs are
#: kept alive and re-verified with ``is`` to guard against id() reuse.
_CACHE: Dict[Tuple[int, int], Tuple[TopDownTransducer, object, DataflowSummary]] = {}
_CACHE_LIMIT = 64


def analyze(
    transducer: TopDownTransducer,
    nta: NTA,
    passes: Optional[Iterable[str]] = None,
    *,
    cache_token: Optional[object] = None,
) -> DataflowSummary:
    """The memoized front door: run (or reuse) the full pipeline.

    Full-pipeline summaries (``passes=None``) are cached by the
    identity of ``(transducer, cache_token or nta)`` — a new transducer
    or schema object invalidates, anything else (protect sets, source
    maps, repeated lint runs) reuses.  Selected-pass runs are never
    cached (the lint engine memoizes those per run).
    """
    if passes is not None:
        return run_passes(transducer, nta, passes)
    token: object = cache_token if cache_token is not None else nta
    key = (id(transducer), id(token))
    hit = _CACHE.get(key)
    if hit is not None and hit[0] is transducer and hit[1] is token:
        obs.add("dataflow.cache.hits")
        return hit[2]
    obs.add("dataflow.cache.misses")
    summary = run_passes(transducer, nta, None)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = (transducer, token, summary)
    return summary


def clear_cache() -> None:
    """Drop all memoized summaries (tests)."""
    _CACHE.clear()


def resolve_prefilter(
    transducer: TopDownTransducer, nta: NTA, prefilter: Optional[DataflowSummary]
) -> Optional[DataflowSummary]:
    """Resolve a decision procedure's ``prefilter`` argument: a summary
    is used as it is; ``None`` means the full summary when the process
    switch (:func:`prefilter_enabled`) is on, and no pre-filtering when
    it is off."""
    if prefilter is not None:
        return prefilter
    if not prefilter_enabled():
        return None
    return analyze(transducer, nta)


def log_skip(procedure: str, pass_name: str, **details: object) -> None:
    """Record that a dataflow summary short-circuited ``procedure``:
    one counter tick plus the one-line obs log event naming the
    responsible pass."""
    obs.add("dataflow.prefilter.skips")
    obs.info(
        "dataflow.prefilter",
        "skipped by static pre-filter",
        procedure=procedure,
        responsible_pass=pass_name,
        **details,
    )
