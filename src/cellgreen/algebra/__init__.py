"""Exact arithmetic layer: polynomials, rational functions, truncated
power series, root isolation, linear algebra, and interval enclosures."""

from .brackets import Bracket, ln_bracket
from .matrix import (
    SingularMatrixError,
    resolvent_row,
    solve_linear,
)
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
    sturm_chain,
)
from .series import PowerSeries, series_from_ratfunc
