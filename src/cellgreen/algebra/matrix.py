"""Exact linear algebra over rationals, polynomials, and rational functions.

Two independent determinant routines are kept on purpose: Bareiss
fraction-free elimination (fast path) and memoized Laplace expansion
(cross-check path).  Tests compare them on random matrices.  Matrices of
linear polynomials, such as the resolvents I - zT, go through
``det_linear``, which runs Bareiss on plain integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .poly import Poly


class SingularMatrixError(ArithmeticError):
    pass


def _is_zero(x) -> bool:
    flag = getattr(x, "is_zero", None)
    if flag is not None:
        return bool(flag)
    return x == 0


def _exact_div(a, b):
    """a / b where b divides a: Poly and int quotients stay in their domain."""
    if isinstance(a, Poly) or isinstance(b, Poly) or (
        isinstance(a, int) and isinstance(b, int)
    ):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        return q
    return a / b


def minor(rows: Sequence[Sequence], drop_row: int, drop_col: int) -> list[list]:
    """Submatrix with one row and one column removed (0-based indices)."""
    return [
        [x for j, x in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


def det_bareiss(rows: Sequence[Sequence]):
    """Fraction-free determinant; entries may be Fraction or Poly.

    All intermediate divisions are exact by the Bareiss identity, so the
    computation stays in the entry domain.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not _is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[0][0] * 0  # zero of the entry domain
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else _exact_div(num, prev)
            m[i][k] = m[i][k] * 0
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def det_linear(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of Poly entries of degree at most 1.

    Row i is multiplied by the lcm ``s_i`` of its coefficient denominators,
    which gives a matrix ``A + zB`` with integer ``A`` and ``B``.  Its
    determinant ``p(z) = prod(s_i) det(rows)`` has integer coefficients and
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
    division by ``prod(s_i)`` gives the rational determinant.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    scale = 1
    lows, highs = [], []
    for row in rows:
        if any(e.degree > 1 for e in row):
            raise ValueError("det_linear needs entries of degree at most 1")
        s = lcm(1, *(c.denominator for e in row for c in e.coeffs))
        scale *= s
        lows.append([int(e.coefficient(0) * s) for e in row])
        highs.append([int(e.coefficient(1) * s) for e in row])
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
    p = Poly([diffs[n]])
    for k in range(n - 1, -1, -1):
        p = p * Poly([-k, 1]) + diffs[k]
    return p * Fraction(1, scale)


def det_laplace(rows: Sequence[Sequence]):
    """Determinant by first-row expansion, memoized on the column subset."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    cache: dict[tuple[int, ...], object] = {}

    def go(cols: tuple[int, ...]):
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = cache.get(cols)
        if got is not None:
            return got
        i = n - len(cols)
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[i][c]
            if _is_zero(entry):
                continue
            sub = go(cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = rows[0][0] * 0
        cache[cols] = acc
        return acc

    return go(tuple(range(n)))


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
        pivot_row = next(
            (r for r in range(col, n) if not _is_zero(a[r][col])), None
        )
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            if _is_zero(a[r][col]):
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
