"""String automata and regular expressions."""

from .dfa import DFA, determinize, minimize
from .nfa import (
    EPSILON,
    NFA,
    concat_nfa,
    literal_nfa,
    pair_nfa,
    product_nfa,
    star_nfa,
    union_nfa,
)
from .regex import (
    Concat,
    EmptySet,
    Epsilon,
    Optional_,
    Regex,
    RegexSyntaxError,
    Star,
    Symbol,
    Union,
    parse_regex,
)

__all__ = [
    "NFA",
    "EPSILON",
    "DFA",
    "determinize",
    "minimize",
    "product_nfa",
    "pair_nfa",
    "union_nfa",
    "concat_nfa",
    "star_nfa",
    "literal_nfa",
    "Regex",
    "Symbol",
    "Epsilon",
    "EmptySet",
    "Concat",
    "Union",
    "Star",
    "Optional_",
    "parse_regex",
    "RegexSyntaxError",
]
