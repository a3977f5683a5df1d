"""Exact arithmetic layer: polynomials, rational functions, power series
expansions as integers in a scaled variable, root isolation, linear
algebra, and interval enclosures."""

from .brackets import Bracket, ln_bracket
from .matrix import resolvent_row
from .poly import (
    Poly,
    format_poly,
    poly_gcd,
    squarefree_part,
)
from .ratfunc import PoleError, RatFunc, ZeroDenominatorError
from .roots import (
    IsolatedRoot,
    NoPositiveRootError,
    count_roots,
    root_compare,
    roots_equal,
    smallest_positive_root,
)
