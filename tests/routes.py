"""Matrix Green entries by the cofactor formula, a route only tests use.

cell_functions reads f and d off the same resolvent matrices and cofactors
without building single entries; these helpers give any entry of
(I - zT)^{-1} for the cross-checks.
"""

from __future__ import annotations

from cellgreen.algebra import Poly, RatFunc, det_linear
from cellgreen.greenkernel import Matrix, _cofactor, _resolvent_matrix


def resolvent_det(t: Matrix) -> Poly:
    """det(I - zT), the common denominator of every entry of (I - zT)^{-1}."""
    return det_linear(_resolvent_matrix(t))


def green_entry(t: Matrix, i: int, j: int, denom: Poly | None = None) -> RatFunc:
    """Entry [i, j] of (I - zT)^{-1} by the cofactor formula.

    ``denom`` is ``resolvent_det(t)``; a caller that needs several entries
    of one matrix passes it in, so that it is computed once.
    """
    m = _resolvent_matrix(t)
    if denom is None:
        denom = det_linear(m)
    return RatFunc(_cofactor(m, i, j), denom)
