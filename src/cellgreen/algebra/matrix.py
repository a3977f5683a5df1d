"""Exact linear algebra: integer determinants and rational linear solves.

``det_bareiss`` runs Bareiss fraction-free elimination (Math. Comp. 22,
1968) on a matrix of plain ints.  ``det_linear`` takes matrices of linear
polynomials, such as the resolvents I - zT, down to it; ``solve_linear``
eliminates over ``Fraction`` or ``RatFunc`` entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Poly, integer_content


class SingularMatrixError(ArithmeticError):
    pass


def _exact_div(a: int, b: int) -> int:
    """a // b for ints where b divides a; raises if it does not."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def minor(rows: Sequence[Sequence], drop_row: int, drop_col: int) -> list[list]:
    """Submatrix with one row and one column removed (0-based indices)."""
    return [
        [x for j, x in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix; every entry stays an int.

    The Bareiss identity makes each division by the previous pivot exact;
    a nonzero remainder raises ``ArithmeticError``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        pivot = top[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = _exact_div(pivot * row[j] - lead * top[j], prev)
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_linear(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of Poly entries of degree at most 1.

    Row i is ``c_i`` times a row of integer polynomials, where ``c_i`` is the
    positive content from ``integer_content``; this gives a matrix ``A + zB``
    with integer ``A`` and ``B``.  Its determinant
    ``p(z) = det(rows) / prod(c_i)`` has integer coefficients and
    degree at most n, so its values at the n + 1 integer points z = 0..n fix
    it; each value is ``det_bareiss`` of an integer matrix.

    Newton interpolation on those points divides the k-th differences by k
    (the spacing of points k apart), so the Newton coefficient ``c_k`` is
    the k-th forward difference of p at 0 over k!.  That is the coefficient
    of p in the falling-factorial basis ``z(z-1)...(z-k+1)``.  Every power
    z^m is an integer combination of falling factorials (Stirling numbers of
    the second kind), so these coefficients, and the divided differences at
    every other start point (those of p(z + i)), are integers: each
    division is exact, and ``_exact_div`` raises if one is not.  Expanding
    the Newton form back to powers of z keeps integers, and the final
    product with ``prod(c_i)`` gives the rational determinant.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    scale = Fraction(1)
    lows, highs = [], []
    for row in rows:
        if any(e.degree > 1 for e in row):
            raise ValueError("det_linear needs entries of degree at most 1")
        ints, content = integer_content(
            [e.coefficient(0) for e in row] + [e.coefficient(1) for e in row]
        )
        scale *= content
        lows.append(ints[:n])
        highs.append(ints[n:])
    diffs = [
        det_bareiss(
            [[a + z * b for a, b in zip(lo, hi)] for lo, hi in zip(lows, highs)]
        )
        for z in range(n + 1)
    ]
    # After pass k, diffs[i] is the divided difference over points i-k..i.
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i] = _exact_div(diffs[i] - diffs[i - 1], k)
    coeffs = [diffs[n]]
    for k in range(n - 1, -1, -1):
        # Horner on the Newton form: coeffs = coeffs * (z - k) + diffs[k].
        coeffs.insert(0, 0)
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += diffs[k]
    return Poly(c * scale for c in coeffs)


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> list:
    """Solve A x = b by Gaussian elimination over an exact field.

    Entries may be Fraction or RatFunc (anything with field arithmetic and a
    zero test).  Raises SingularMatrixError when A is not invertible.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("shape mismatch")
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, n + 1):
                a[r][c] = a[r][c] - factor * a[col][c]
    out = [None] * n
    for col in range(n - 1, -1, -1):
        acc = a[col][n]
        for c in range(col + 1, n):
            acc = acc - a[col][c] * out[c]
        out[col] = acc / a[col][col]
    return out
