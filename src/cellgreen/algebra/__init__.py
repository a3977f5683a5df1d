"""Exact arithmetic layer: polynomials, rational functions, truncated
power series, root isolation, linear algebra, and interval enclosures."""

from .brackets import Bracket, ln_bracket, log_ratio
from .matrix import (
    SingularMatrixError,
    det_bareiss,
    det_linear,
    minor,
    solve_linear,
)
from .poly import (
    ONE,
    X,
    ZERO,
    Poly,
    format_poly,
    poly_gcd,
    squarefree_decomposition,
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
from .series import PowerSeries, series_from_poly, series_from_ratfunc

__all__ = [
    "Bracket",
    "IsolatedRoot",
    "NoPositiveRootError",
    "ONE",
    "PoleError",
    "Poly",
    "PowerSeries",
    "RatFunc",
    "SingularMatrixError",
    "X",
    "ZERO",
    "ZeroDenominatorError",
    "count_roots",
    "det_bareiss",
    "det_linear",
    "format_poly",
    "ln_bracket",
    "log_ratio",
    "minor",
    "poly_gcd",
    "root_compare",
    "roots_equal",
    "series_from_poly",
    "series_from_ratfunc",
    "smallest_positive_root",
    "solve_linear",
    "squarefree_decomposition",
    "squarefree_part",
    "sturm_chain",
]
