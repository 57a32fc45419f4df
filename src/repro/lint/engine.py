"""The lint registry and runner.

:class:`LintContext` carries the analyzed transducer/schema pair and
memoizes the shared machinery (the Lemma 4.8 configuration product,
the Lemma 4.5/4.6 reports, §7 protection reports) so rules never
recompute each other's work.  :func:`run_lint` executes a rule
selection and returns diagnostics sorted most-severe first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import obs
from ..automata.nta import NTA
from ..core.safety import ProtectionReport, protection_report
from ..core.topdown import TopDownTransducer
from ..core.topdown_analysis import (
    CopyingReport,
    RearrangingFinding,
    copying_report,
    rearranging_findings,
)
from ..schema.dtd import DTD, dtd_to_nta
from .dataflow import DataflowSummary
from .dataflow import analyze as dataflow_analyze
from .dataflow import dependency_closure, prefilter_enabled
from .diagnostics import Diagnostic, SourceInfo, severity_order

__all__ = ["LintRule", "LintContext", "default_rules", "run_lint"]

Schema = Union[DTD, NTA]


@dataclass(frozen=True)
class LintRule:
    """One registry entry: a stable code bound to a check function."""

    code: str
    name: str
    severity: str
    check: Callable[["LintContext"], Iterable[Diagnostic]]
    #: When ``True`` the rule is skipped on empty schema languages
    #: (every verdict would be vacuous noise; TP200 explains instead).
    needs_schema: bool = True


@dataclass
class LintContext:
    """Shared state handed to every rule check."""

    transducer: TopDownTransducer
    schema: Schema
    protected_labels: Tuple[str, ...] = ()
    sources: SourceInfo = field(default_factory=SourceInfo)
    compute_subschema: bool = True
    #: Dataflow pass selection (``None`` = the full pipeline); closed
    #: under dependencies by the pass manager.
    passes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if isinstance(self.schema, DTD):
            self.dtd: Optional[DTD] = self.schema
            self.nta: NTA = dtd_to_nta(self.schema)
        elif isinstance(self.schema, NTA):
            self.dtd = None
            self.nta = self.schema
        else:
            raise TypeError("schema must be a DTD or an NTA, got %r" % (self.schema,))
        self._memo: Dict[str, Any] = {}
        self.memo_hits: int = 0
        self.memo_misses: int = 0

    def _cached(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self.memo_misses += 1
            obs.add("lint.memo.misses")
            self._memo[key] = compute()
        else:
            self.memo_hits += 1
            obs.add("lint.memo.hits")
        return self._memo[key]

    def memo_stats(self) -> Dict[str, int]:
        """Hit/miss counts of the shared-machinery memo — how much work
        the rules reused instead of recomputing."""
        return {"hits": self.memo_hits, "misses": self.memo_misses}

    # -- shared machinery -------------------------------------------------

    def schema_is_empty(self) -> bool:
        return self._cached("schema_empty", self.nta.is_empty)

    def dataflow(self) -> DataflowSummary:
        """The memoized dataflow summary (see :mod:`repro.lint.dataflow`).

        Keyed globally by the identity of the ``(transducer, schema)``
        pair, so contexts differing only in protect sets, sources, or
        rule selection share one fixpoint run.
        """
        return self._cached(
            "dataflow",
            lambda: dataflow_analyze(
                self.transducer, self.nta, self.passes, cache_token=self.schema
            ),
        )

    def prefilter(self) -> Optional[DataflowSummary]:
        """The ``prefilter=`` argument handed to the decision
        procedures: the memoized dataflow summary while the process
        switch (:func:`repro.lint.dataflow.prefilter_enabled`) is on,
        ``None`` (which the procedures resolve to off) otherwise."""
        if not prefilter_enabled():
            return None
        return self.dataflow()

    def _configs(self) -> Tuple[Set[Tuple[str, str]], Dict[Tuple[str, str], Any], Dict[str, Any]]:
        """The Lemma 4.8 configuration product, classified per
        ``(state, label)`` event: realizable (a rule fires), uncovered
        (no rule: implicit deletion), or a text drop (no ``text``
        rule).  Computed by the dataflow reachability pass."""
        return self._cached("configs", self._compute_configs)

    def _compute_configs(self) -> Tuple[Set[Tuple[str, str]], Dict[Tuple[str, str], Any], Dict[str, Any]]:
        summary = self.dataflow()
        return set(summary.realizable), dict(summary.uncovered), dict(summary.text_drops)

    def realizable_rules(self) -> Set[Tuple[str, str]]:
        """``(state, label)`` pairs (including ``text``) that fire on
        some valid document."""
        return self._configs()[0]

    def uncovered_pairs(self) -> Dict[Tuple[str, str], Any]:
        """Reachable ``(state, label)`` pairs with no rule — implicit
        deletions — mapped to an example schema state."""
        return self._configs()[1]

    def text_drop_states(self) -> Dict[str, Any]:
        """States that reach text under the schema but lack a ``text``
        rule, mapped to an example schema state."""
        return self._configs()[2]

    def empty_content_models(self) -> Set[str]:
        """DTD labels whose content model accepts no word at all."""
        def compute() -> Set[str]:
            if self.dtd is None:
                return set()
            return {
                label
                for label in self.dtd.alphabet
                if self.dtd.content_model(label).is_empty()
            }

        return self._cached("empty_models", compute)

    def copying(self) -> Optional[CopyingReport]:
        """The localized Lemma 4.5 copying report, or ``None``."""
        return self._cached(
            "copying",
            lambda: copying_report(self.transducer, self.nta, prefilter=self.prefilter()),
        )

    def rearranging(self) -> Tuple[RearrangingFinding, ...]:
        """The localized Lemma 4.6 rearranging findings (may be empty)."""
        return self._cached(
            "rearranging",
            lambda: rearranging_findings(
                self.transducer, self.nta, prefilter=self.prefilter()
            ),
        )

    def protection(self, label: str) -> Optional[ProtectionReport]:
        """The §7 protection report for one protected label."""
        return self._cached(
            "protection:%s" % label,
            lambda: protection_report(self.transducer, self.nta, label),
        )

    def is_unsafe(self) -> bool:
        """Whether any TP3xx/TP401 condition holds."""
        if self.copying() is not None or self.rearranging():
            return True
        return any(self.protection(label) is not None for label in self.protected_labels)


def default_rules() -> Tuple[LintRule, ...]:
    """All built-in rules, in code order (TP1xx ... TP5xx)."""
    from . import rules_flow, rules_safety, rules_schema, rules_topdown

    return (
        rules_topdown.rules()
        + rules_schema.rules()
        + rules_safety.rules()
        + rules_flow.rules()
    )


def _sort_key(diagnostic: Diagnostic) -> Tuple[int, str, int, str]:
    line = diagnostic.location.line if diagnostic.location and diagnostic.location.line else 0
    return (-severity_order(diagnostic.severity), diagnostic.code, line, diagnostic.message)


def run_lint(
    transducer: TopDownTransducer,
    schema: Schema,
    protected_labels: Iterable[str] = (),
    *,
    sources: Optional[SourceInfo] = None,
    codes: Optional[Iterable[str]] = None,
    compute_subschema: bool = True,
    rules: Optional[Sequence[LintRule]] = None,
    passes: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run the diagnostics engine on a transducer/schema pair.

    Parameters
    ----------
    transducer:
        A :class:`~repro.core.topdown.TopDownTransducer`.  (DTL
        transducers have no rule-level localization; use the boolean
        deciders in :mod:`repro.analysis` for those.)
    schema:
        A :class:`~repro.schema.dtd.DTD` or an
        :class:`~repro.automata.nta.NTA`.
    protected_labels:
        Labels whose text must never be deleted (§7) — enables TP401.
    sources:
        Optional ``file:line`` maps from the CLI loaders.
    codes:
        Restrict to a subset of diagnostic codes.
    compute_subschema:
        Whether TP402 may run the (exponential) §7 sub-schema
        construction on unsafe pairs.
    rules:
        Override the rule registry (defaults to :func:`default_rules`).
    passes:
        Restrict the dataflow pipeline to these passes (closed under
        dependencies; ``None`` runs all five).  Unknown names raise
        ``ValueError`` naming the valid set.

    The TP3xx decision procedures consult the dataflow summary as a
    sound pre-filter unless the process switch is off (see
    :mod:`repro.lint.dataflow.config`); findings are identical either
    way, only the work differs.

    Returns diagnostics sorted most-severe first, then by code.
    """
    if not isinstance(transducer, TopDownTransducer):
        raise TypeError(
            "the lint engine localizes blame via Section 4 path runs and "
            "currently supports TopDownTransducer only; got %r" % (transducer,)
        )
    selected_passes: Optional[Tuple[str, ...]] = None
    if passes is not None:
        selected_passes = dependency_closure(passes)  # validates names
    context = LintContext(
        transducer=transducer,
        schema=schema,
        protected_labels=tuple(dict.fromkeys(protected_labels)),
        sources=sources if sources is not None else SourceInfo(),
        compute_subschema=compute_subschema,
        passes=selected_passes,
    )
    selected = tuple(rules) if rules is not None else default_rules()
    if codes is not None:
        wanted = set(codes)
        selected = tuple(rule for rule in selected if rule.code in wanted)
    with obs.span("lint.run") as sp:
        schema_empty = context.schema_is_empty()
        diagnostics: List[Diagnostic] = []
        for rule in selected:
            if schema_empty and rule.needs_schema:
                continue
            with obs.span("lint.rule") as rule_span:
                rule_span.set("code", rule.code)
                diagnostics.extend(rule.check(context))
            if obs.enabled():
                obs.observe("lint.rule.ms", rule_span.duration_ns / 1e6)
        diagnostics.sort(key=_sort_key)
        if obs.enabled():
            sp.set("rules", len(selected))
            sp.set("diagnostics", len(diagnostics))
            sp.set("memo_hits", context.memo_hits)
            sp.set("memo_misses", context.memo_misses)
        return diagnostics
