"""Input formats: the one place that reads a schema, transducer or XML file.

File formats (deliberately line-oriented and diff-friendly):

**Schema files** (``.dtd`` text form) — one content model per line,
``start`` naming the root labels, ``#`` comments::

    start recipes
    recipes -> recipe*
    recipe  -> description . ingredients . instructions . comments
    description -> text

**Transducer files** (``.tdx``) — top-down uniform transducers in the
paper's rule syntax; states are declared implicitly by use::

    initial q0
    rule q0 recipes -> recipes(q0)
    rule q0 recipe  -> recipe(qsel)
    rule qsel description -> description(q)
    text q

**Documents** are XML without attributes (:func:`repro.trees.xmlio.xml_to_tree`).

Every loader reads through :func:`read_text` and reports whatever is
wrong with the file — unreadable, not UTF-8, malformed, or nested deeper
than the recursive-descent parsers reach — as one :class:`FormatError`,
``PATH[:LINE]: message``, with lines counted as universal newlines count
them.  The CLI prints it and exits 2; a corpus job records it as its
``error``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .automata.nta import TEXT
from .core.topdown import TopDownTransducer
from .lint import SourceInfo
from .schema.dtd import DTD
from .strings.nfa import NFA
from .trees.tree import Tree
from .trees.xmlio import XmlSyntaxError, xml_to_tree

__all__ = [
    "FormatError",
    "LoadedSchema",
    "LoadedTransducer",
    "read_text",
    "load_schema",
    "load_schema_ex",
    "load_transducer",
    "load_transducer_ex",
    "load_document",
    "source_info",
]


class FormatError(ValueError):
    """A malformed or unreadable input file; printed without a traceback."""


class LoadedSchema(NamedTuple):
    """A parsed schema plus the source lines its labels came from."""

    dtd: DTD
    label_lines: Dict[str, int]


class LoadedTransducer(NamedTuple):
    """A parsed transducer plus the source lines of its rules/states."""

    transducer: TopDownTransducer
    rule_lines: Dict[Tuple[str, str], int]
    state_lines: Dict[str, int]


def read_text(path: str) -> str:
    """The file as ``open(path, encoding="utf-8")`` reads it (universal
    newlines, translated to ``\\n``), except that a path that cannot be
    read (missing, a directory) is a :class:`FormatError`, and so is a
    byte that is not UTF-8, at its line."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise FormatError("%s: %s" % (path, error.strerror or error)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        before = data[: error.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise FormatError("%s:%d: not valid UTF-8" % (path, before.count(b"\n") + 1)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _reason(error: Exception) -> str:
    """A build error's message; a parser's recursion overflow is named
    for what it is in the file."""
    return "nested too deeply to parse" if isinstance(error, RecursionError) else str(error)


def _blame(
    path: str, error: Exception, checks: Sequence[Tuple[int, Callable[[], object]]]
) -> FormatError:
    """The :class:`FormatError` for a file whose parsed declarations
    failed to build with ``error``: ``PATH:LINE: ...`` for the first
    ``(line, check)`` in source order whose check fails on its own
    declaration, else ``PATH: ...``.  Only runs once the file is known
    to be bad, so a good file pays nothing."""
    for number, check in sorted(checks, key=lambda item: item[0]):
        try:
            check()
        except (ValueError, RecursionError) as own:
            return FormatError("%s:%d: %s" % (path, number, _reason(own)))
    return FormatError("%s: %s" % (path, _reason(error)))


def load_schema_ex(path: str) -> LoadedSchema:
    """Parse the line-oriented schema format, keeping source lines."""
    content: Dict[str, str] = {}
    label_lines: Dict[str, int] = {}
    start: Set[str] = set()
    start_lines: Dict[str, int] = {}
    for number, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("start"):
            labels = line[len("start"):].split()
            if not labels:
                raise FormatError("%s:%d: 'start' needs at least one label" % (path, number))
            start.update(labels)
            for label in labels:
                start_lines.setdefault(label, number)
            continue
        if "->" not in line:
            raise FormatError("%s:%d: expected 'label -> content-model'" % (path, number))
        label, model = (part.strip() for part in line.split("->", 1))
        if not label or " " in label:
            raise FormatError("%s:%d: bad label %r" % (path, number, label))
        if label in content:
            raise FormatError("%s:%d: duplicate content model for %r" % (path, number, label))
        content[label] = model
        label_lines[label] = number
    if not start:
        raise FormatError("%s: missing 'start' line" % path)
    try:
        return LoadedSchema(DTD(content=content, start=start), label_lines)
    except (ValueError, RecursionError) as error:
        # Each check builds the schema with one declaration kept and
        # every other content model empty.
        empty = {label: NFA([0], [], [], 0, [0]) for label in content if label != TEXT}
        checks = [
            (number, lambda label=label: DTD({**empty, label: content[label]}, ()))
            for label, number in label_lines.items()
        ] + [
            (number, lambda label=label: DTD(empty, (label,)))
            for label, number in start_lines.items()
        ]
        raise _blame(path, error, checks) from None


def load_schema(path: str) -> DTD:
    """Parse the line-oriented schema format into a DTD."""
    return load_schema_ex(path).dtd


def load_transducer_ex(path: str) -> LoadedTransducer:
    """Parse the transducer format, keeping source lines."""
    initial: Optional[str] = None
    rules: Dict[Tuple[str, str], str] = {}
    rule_lines: Dict[Tuple[str, str], int] = {}
    states: Set[str] = set()
    state_lines: Dict[str, int] = {}
    pending: List[Tuple[int, str, str, str]] = []

    def register_state(state: str, number: int) -> None:
        states.add(state)
        state_lines.setdefault(state, number)

    for number, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "initial":
            if initial is not None:
                raise FormatError("%s:%d: duplicate 'initial'" % (path, number))
            initial = rest.strip()
            if not initial:
                raise FormatError("%s:%d: 'initial' needs a state name" % (path, number))
            register_state(initial, number)
        elif keyword == "text":
            text_states = rest.split()
            if not text_states:
                raise FormatError("%s:%d: 'text' needs at least one state" % (path, number))
            for state in text_states:
                register_state(state, number)
                rules[(state, "text")] = "text"
                rule_lines[(state, "text")] = number
        elif keyword == "rule":
            if "->" not in rest:
                raise FormatError("%s:%d: expected 'rule STATE LABEL -> rhs'" % (path, number))
            head, rhs = (part.strip() for part in rest.split("->", 1))
            head_parts = head.split()
            if len(head_parts) != 2:
                raise FormatError("%s:%d: expected 'rule STATE LABEL -> rhs'" % (path, number))
            state, label = head_parts
            register_state(state, number)
            pending.append((number, state, label, rhs))
        else:
            raise FormatError("%s:%d: unknown keyword %r" % (path, number, keyword))
    if initial is None:
        raise FormatError("%s: missing 'initial' line" % path)
    for number, state, label, rhs in pending:
        if (state, label) in rules:
            raise FormatError("%s:%d: duplicate rule for (%s, %s)" % (path, number, state, label))
        rules[(state, label)] = rhs
        rule_lines[(state, label)] = number
    try:
        transducer = TopDownTransducer(states=states, rules=rules, initial=initial)
    except (ValueError, RecursionError) as error:
        checks = [
            (number, lambda key=key: TopDownTransducer(states, {key: rules[key]}, initial))
            for key, number in rule_lines.items()
        ]
        raise _blame(path, error, checks) from None
    return LoadedTransducer(transducer, rule_lines, state_lines)


def load_transducer(path: str) -> TopDownTransducer:
    """Parse the transducer format into a top-down transducer."""
    return load_transducer_ex(path).transducer


def load_document(path: str) -> Tree:
    """Parse an XML document."""
    text = read_text(path)
    try:
        return xml_to_tree(text)
    except XmlSyntaxError as error:
        line = text.count("\n", 0, error.position) + 1
        raise FormatError("%s:%d: %s" % (path, line, error)) from None
    except RecursionError as error:
        raise FormatError("%s: %s" % (path, _reason(error))) from None


def source_info(
    transducer_path: str, loaded_transducer: LoadedTransducer,
    schema_path: str, loaded_schema: LoadedSchema,
) -> SourceInfo:
    """Where a loaded pair's rules, states and labels were declared: the
    ``file:line`` citations of its diagnostics."""
    return SourceInfo(
        transducer_path=transducer_path,
        schema_path=schema_path,
        rule_lines=loaded_transducer.rule_lines,
        state_lines=loaded_transducer.state_lines,
        label_lines=loaded_schema.label_lines,
    )
