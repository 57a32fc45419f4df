"""The :class:`Diagnostic` data model shared by all lint rules.

A diagnostic is an explainable verdict: a stable code (``TP302``), a
severity, a human-readable message, and — where the analysis can
localize blame — the responsible transducer rule, its source location
in the ``.tdx``/``.dtd`` file, a witness text path, and the smallest
counter-example document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..trees.parser import serialize_tree
from ..trees.tree import Tree
from ..trees.xmlio import tree_to_xml

__all__ = [
    "SEVERITIES",
    "severity_order",
    "SourceLocation",
    "SourceInfo",
    "Diagnostic",
]

#: Recognized severities, weakest first.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")

_ORDER = {severity: rank for rank, severity in enumerate(SEVERITIES)}


def severity_order(severity: str) -> int:
    """The rank of a severity (``info`` < ``warning`` < ``error``)."""
    try:
        return _ORDER[severity]
    except KeyError:
        raise ValueError("unknown severity %r; expected one of %r" % (severity, SEVERITIES))


@dataclass(frozen=True)
class SourceLocation:
    """A ``file:line`` pointer into an input file (line may be unknown)."""

    path: str
    line: Optional[int] = None

    def __str__(self) -> str:
        if self.line is None:
            return self.path
        return "%s:%d" % (self.path, self.line)


@dataclass(frozen=True)
class SourceInfo:
    """Side-band location data collected by the :mod:`repro.formats` loaders.

    Maps transducer rules / states and schema labels back to the line
    of the ``.tdx``/``.dtd`` file that declared them, so diagnostics
    can point at ``file:line`` instead of only naming the rule.
    """

    transducer_path: Optional[str] = None
    schema_path: Optional[str] = None
    #: ``(state, label) -> line`` for transducer rules (text rules use
    #: the label ``"text"``).
    rule_lines: Mapping[Tuple[str, str], int] = field(default_factory=dict)
    #: ``state -> line`` of the first mention of each transducer state.
    state_lines: Mapping[str, int] = field(default_factory=dict)
    #: ``label -> line`` of each schema content-model definition.
    label_lines: Mapping[str, int] = field(default_factory=dict)

    def rule_location(self, rule: Tuple[str, str]) -> Optional[SourceLocation]:
        if self.transducer_path is None:
            return None
        return SourceLocation(self.transducer_path, self.rule_lines.get(rule))

    def state_location(self, state: str) -> Optional[SourceLocation]:
        if self.transducer_path is None:
            return None
        return SourceLocation(self.transducer_path, self.state_lines.get(state))

    def label_location(self, label: str) -> Optional[SourceLocation]:
        if self.schema_path is None:
            return None
        return SourceLocation(self.schema_path, self.label_lines.get(label))

    def schema_location(self) -> Optional[SourceLocation]:
        if self.schema_path is None:
            return None
        return SourceLocation(self.schema_path)


@dataclass(frozen=True)
class Diagnostic:
    """One coded finding of the lint engine.

    Attributes
    ----------
    code:
        Stable identifier (``TP101`` ... ``TP402``).
    severity:
        ``"error"`` (text-preservation is violated), ``"warning"``
        (almost certainly a mistake), or ``"info"`` (noteworthy but
        often intentional, e.g. deliberate deletions).
    message:
        One-line human-readable explanation.
    rule:
        The responsible transducer rule ``(state, label)``, when blame
        can be localized.
    location:
        ``file:line`` of the blamed construct, when the inputs came
        from files.
    path:
        A witness text path (ancestor labels ending in ``text``).
    witness:
        The smallest counter-example document, value-unique, when the
        finding has one.
    data:
        Extra code-specific structured details (JSON-serializable).
    """

    code: str
    severity: str
    message: str
    rule: Optional[Tuple[str, str]] = None
    location: Optional[SourceLocation] = None
    path: Optional[Tuple[str, ...]] = None
    witness: Optional[Tree] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        severity_order(self.severity)  # validates

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view of the diagnostic."""
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.rule is not None:
            out["rule"] = {"state": self.rule[0], "label": self.rule[1]}
        if self.location is not None:
            out["location"] = {"path": self.location.path, "line": self.location.line}
        if self.path is not None:
            out["path"] = list(self.path)
        if self.witness is not None:
            out["witness"] = serialize_tree(self.witness)
            out["witness_xml"] = tree_to_xml(self.witness).strip()
        if self.data:
            out["data"] = dict(self.data)
        return out
