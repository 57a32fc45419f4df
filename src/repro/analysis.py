"""The front-door API: one set of verbs over both transducer families
and both schema formalisms.

``schema`` arguments accept a :class:`~repro.schema.dtd.DTD` or an
:class:`~repro.automata.nta.NTA`; ``transducer`` arguments accept a
:class:`~repro.core.topdown.TopDownTransducer` (decided by the PTIME
Section 4 pipeline) or a :class:`~repro.core.dtl.DTLTransducer`
(decided by the Section 5 MSO pipeline).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from .automata.nta import NTA
from .core.dtl import DTLTransducer
from .core.dtl_analysis import (
    counter_example_dtl,
    is_copying_dtl,
    is_rearranging_dtl,
    is_text_preserving_dtl,
)
from .core.safety import (
    deletes_protected_text as _deletes_protected_text,
)
from .core.safety import (
    is_text_preserving_with_protection as _preserving_with_protection,
)
from .core.safety import maximal_safe_subschema as _maximal_safe_subschema
from .core.topdown import TopDownTransducer
from .core.topdown_analysis import (
    counter_example as _counter_example_topdown,
)
from .core.topdown_analysis import (
    is_copying as _is_copying_topdown,
)
from .core.topdown_analysis import (
    is_rearranging as _is_rearranging_topdown,
)
from .core.topdown_analysis import (
    is_text_preserving as _is_text_preserving_topdown,
)
from .lint.diagnostics import Diagnostic, SourceInfo
from .lint.engine import run_lint
from .schema.dtd import DTD, dtd_to_nta
from .trees.tree import Tree

__all__ = [
    "is_text_preserving",
    "is_copying",
    "is_rearranging",
    "counter_example",
    "maximal_safe_subschema",
    "deletes_protected_text",
    "is_text_preserving_with_protection",
    "diagnose",
    "audit_corpus",
]

Transducer = Union[TopDownTransducer, DTLTransducer]
Schema = Union[DTD, NTA]


def _as_nta(schema: Schema) -> NTA:
    if isinstance(schema, DTD):
        return dtd_to_nta(schema)
    if isinstance(schema, NTA):
        return schema
    raise TypeError("schema must be a DTD or an NTA, got %r" % (schema,))


def is_text_preserving(transducer: Transducer, schema: Schema) -> bool:
    """Decide whether the transducer is text-preserving over the schema
    (Theorem 4.11 for top-down transducers; Theorems 5.12/5.18 for
    DTL)."""
    nta = _as_nta(schema)
    if isinstance(transducer, TopDownTransducer):
        return _is_text_preserving_topdown(transducer, nta)
    if isinstance(transducer, DTLTransducer):
        return is_text_preserving_dtl(transducer, nta)
    raise TypeError("unsupported transducer %r" % (transducer,))


def is_copying(transducer: Transducer, schema: Schema) -> bool:
    """Decide the copying half of the Theorem 3.3 characterization."""
    nta = _as_nta(schema)
    if isinstance(transducer, TopDownTransducer):
        return _is_copying_topdown(transducer, nta)
    if isinstance(transducer, DTLTransducer):
        return is_copying_dtl(transducer, nta)
    raise TypeError("unsupported transducer %r" % (transducer,))


def is_rearranging(transducer: Transducer, schema: Schema) -> bool:
    """Decide the rearranging half of the Theorem 3.3 characterization."""
    nta = _as_nta(schema)
    if isinstance(transducer, TopDownTransducer):
        return _is_rearranging_topdown(transducer, nta)
    if isinstance(transducer, DTLTransducer):
        return is_rearranging_dtl(transducer, nta)
    raise TypeError("unsupported transducer %r" % (transducer,))


def counter_example(transducer: Transducer, schema: Schema) -> Optional[Tree]:
    """A smallest value-unique schema tree witnessing a violation, or
    ``None`` when the transducer is text-preserving."""
    nta = _as_nta(schema)
    if isinstance(transducer, TopDownTransducer):
        return _counter_example_topdown(transducer, nta)
    if isinstance(transducer, DTLTransducer):
        return counter_example_dtl(transducer, nta)
    raise TypeError("unsupported transducer %r" % (transducer,))


def maximal_safe_subschema(
    transducer: Transducer, schema: Schema, protected_labels: Iterable[str] = ()
) -> NTA:
    """Section 7: the largest sub-schema on which the transformation is
    text-preserving (and protects the given labels)."""
    return _maximal_safe_subschema(transducer, _as_nta(schema), protected_labels)


def deletes_protected_text(transducer: Transducer, schema: Schema, label: str) -> bool:
    """Section 7 extension: whether some schema tree loses a text value
    below a ``label``-node."""
    return _deletes_protected_text(transducer, _as_nta(schema), label)


def is_text_preserving_with_protection(
    transducer: Transducer, schema: Schema, protected_labels: Iterable[str]
) -> bool:
    """Section 7 extension: text-preserving and deletion-free below all
    protected labels."""
    return _preserving_with_protection(transducer, _as_nta(schema), protected_labels)


def diagnose(
    transducer: Transducer,
    schema: Schema,
    protected_labels: Iterable[str] = (),
    *,
    sources: Optional[SourceInfo] = None,
    codes: Optional[Iterable[str]] = None,
    compute_subschema: bool = True,
    passes: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Static analysis with explainable verdicts (the :mod:`repro.lint`
    engine): coded findings instead of bare booleans.

    Structural problems are TP1xx, schema problems TP2xx,
    text-preservation violations TP3xx (localized to the offending rule,
    with the smallest counter-example attached), §7 safety findings
    TP4xx, and dataflow findings TP5xx.  ``passes`` restricts the
    dataflow pipeline; the sound pre-filters gating the TP3xx decision
    procedures follow the process switch
    (:func:`repro.lint.dataflow.prefilter_disabled`; findings are
    identical either way).  ``schema`` accepts a DTD or an NTA;
    ``transducer`` must be a
    :class:`~repro.core.topdown.TopDownTransducer` (DTL programs have no
    rule-level localization — use the boolean deciders instead).
    """
    if isinstance(transducer, DTLTransducer):
        raise TypeError(
            "diagnose localizes blame via Section 4 path runs and supports "
            "TopDownTransducer only; use is_text_preserving/counter_example "
            "for DTL transducers"
        )
    return run_lint(
        transducer,
        schema,
        protected_labels,
        sources=sources,
        codes=codes,
        compute_subschema=compute_subschema,
        passes=passes,
    )


def audit_corpus(
    corpus_dir: str,
    *,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    shard: Optional[str] = None,
):
    """Batch front door (the :mod:`repro.corpus` engine): discover every
    (transducer, schema, protect) job of a corpus directory — from its
    manifest or the ``*.tdx`` x ``*.schema`` convention — run them on a
    process pool with per-job timeouts and failure isolation, and
    return the :class:`~repro.corpus.runner.RunSummary` (worst verdicts
    first).  Results are cached content-addressed under
    ``corpus_dir/.repro-cache`` unless ``use_cache`` is false.

    ``shard="i/N"`` keeps only this process's deterministic slice of
    the corpus (the same SHA-256 partition as ``batch --shard`` and the
    serve-side splitter), so N calls with ``0/N``..``N-1/N`` together
    cover exactly the full corpus.
    """
    # Imported lazily: corpus pulls in the CLI loaders, which import
    # this module.
    from .corpus import discover_jobs, filter_shard, open_cache, parse_shard, run_corpus

    jobs = discover_jobs(corpus_dir)
    if shard is not None:
        index, count = parse_shard(shard)
        jobs = filter_shard(jobs, index, count)
    cache = open_cache(corpus_dir, cache_dir) if use_cache else None
    return run_corpus(
        jobs,
        max_workers=max_workers,
        timeout=timeout,
        cache=cache,
    )
