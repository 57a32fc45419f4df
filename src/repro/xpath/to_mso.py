"""Translating Core XPath into MSO (Core XPath ⊆ MSO).

Every node expression becomes a unary MSO formula and every path
expression a binary one, following the textbook translation:

* base axes are the ``E`` / ``<`` relations (next-sibling is the
  *immediate* successor: ``x < y`` with nothing strictly between);
* ``R*`` uses the standard second-order closure: ``y`` belongs to every
  set containing ``x`` that is closed under ``R``;
* composition introduces an existential middle variable; filters and
  ``<alpha>`` are conjunction and projection.

This is how DTL^XPath plugs into the Section 5.3 machinery here: its
patterns ride the same automata pipeline as DTL^MSO (see DESIGN.md for
the substitution note regarding the paper's 2ATWA route).
"""

from __future__ import annotations

import itertools

from .. import obs
from ..mso.ast import (
    And,
    Child,
    Eq,
    ExistsFO,
    Formula,
    In,
    Lab,
    Not,
    Or,
    Sibling,
    forall_fo,
    forall_so,
    formula_size,
    implies,
)
from .ast import (
    AndPred,
    Axis,
    AxisStar,
    CHILD,
    Compose,
    Filter,
    HasPath,
    LabelTest,
    NEXT_SIBLING,
    NodeExpr,
    NotPred,
    OrPred,
    PARENT,
    PREVIOUS_SIBLING,
    PathExpr,
    SelfPath,
    TruePred,
    UnionPath,
)

__all__ = ["node_expr_to_mso", "path_expr_to_mso", "FreshVars"]


class FreshVars:
    """A supply of fresh variable names, shared across one translation."""

    def __init__(self, prefix: str = "v") -> None:
        self._counter = itertools.count()
        self._prefix = prefix

    def fo(self) -> str:
        return "%s%d" % (self._prefix, next(self._counter))

    def so(self) -> str:
        return "%s%d_SET" % (self._prefix.upper(), next(self._counter))


def _axis_formula(axis: str, x: str, y: str, fresh: FreshVars) -> Formula:
    if axis == CHILD:
        return Child(x, y)
    if axis == PARENT:
        return Child(y, x)
    if axis == NEXT_SIBLING:
        z = fresh.fo()
        return And(Sibling(x, y), Not(ExistsFO(z, And(Sibling(x, z), Sibling(z, y)))))
    if axis == PREVIOUS_SIBLING:
        z = fresh.fo()
        return And(Sibling(y, x), Not(ExistsFO(z, And(Sibling(y, z), Sibling(z, x)))))
    raise ValueError("unknown axis %r" % axis)


def _closure_formula(axis: str, x: str, y: str, fresh: FreshVars) -> Formula:
    """``R*(x, y)``: every ``R``-closed set containing ``x`` contains ``y``."""
    set_var = fresh.so()
    u, v = fresh.fo(), fresh.fo()
    closed = forall_fo(
        u,
        forall_fo(
            v,
            implies(And(In(u, set_var), _axis_formula(axis, u, v, fresh)), In(v, set_var)),
        ),
    )
    return forall_so(set_var, implies(And(In(x, set_var), closed), In(y, set_var)))


def path_expr_to_mso(
    expression: PathExpr, x: str, y: str, fresh: FreshVars = None
) -> Formula:
    """The binary MSO formula ``alpha(x, y)``."""
    if fresh is None:
        # A top-level translation: record the XPath → MSO size blow-up
        # (the driver of the Theorem 5.18 EXPTIME compilation cost).
        result = path_expr_to_mso(expression, x, y, FreshVars())
        if obs.enabled():
            obs.add("xpath.translations")
            obs.add("xpath.mso_formula_size", formula_size(result))
        return result
    if isinstance(expression, Axis):
        return _axis_formula(expression.axis, x, y, fresh)
    if isinstance(expression, AxisStar):
        return _closure_formula(expression.axis, x, y, fresh)
    if isinstance(expression, SelfPath):
        return Eq(x, y)
    if isinstance(expression, Compose):
        z = fresh.fo()
        return ExistsFO(
            z,
            And(
                path_expr_to_mso(expression.left, x, z, fresh),
                path_expr_to_mso(expression.right, z, y, fresh),
            ),
        )
    if isinstance(expression, UnionPath):
        return Or(
            path_expr_to_mso(expression.left, x, y, fresh),
            path_expr_to_mso(expression.right, x, y, fresh),
        )
    if isinstance(expression, Filter):
        return And(
            path_expr_to_mso(expression.path, x, y, fresh),
            node_expr_to_mso(expression.predicate, y, fresh),
        )
    raise TypeError("unknown path expression %r" % (expression,))


def node_expr_to_mso(expression: NodeExpr, x: str, fresh: FreshVars = None) -> Formula:
    """The unary MSO formula ``phi(x)``."""
    if fresh is None:
        result = node_expr_to_mso(expression, x, FreshVars())
        if obs.enabled():
            obs.add("xpath.translations")
            obs.add("xpath.mso_formula_size", formula_size(result))
        return result
    if isinstance(expression, LabelTest):
        return Lab(expression.label, x)
    if isinstance(expression, HasPath):
        y = fresh.fo()
        return ExistsFO(y, path_expr_to_mso(expression.path, x, y, fresh))
    if isinstance(expression, TruePred):
        # x = x: satisfied by every node.
        return Eq(x, x)
    if isinstance(expression, NotPred):
        return Not(node_expr_to_mso(expression.inner, x, fresh))
    if isinstance(expression, AndPred):
        return And(
            node_expr_to_mso(expression.left, x, fresh),
            node_expr_to_mso(expression.right, x, fresh),
        )
    if isinstance(expression, OrPred):
        return Or(
            node_expr_to_mso(expression.left, x, fresh),
            node_expr_to_mso(expression.right, x, fresh),
        )
    raise TypeError("unknown node expression %r" % (expression,))
