"""Exact linear algebra in integers.

``bareiss_solve`` is the one fraction-free elimination: it gives a
determinant and the Cramer numerators of one right-hand column.
``resolvent_row`` runs it at the nodes of an interpolation, and
``harmonic.harmonic_function`` on the cell's mean-value system.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from .poly import Poly, _exact_div, clear_denominators


def interpolate(values: Sequence[int]) -> list[int]:
    """Coefficients, lowest first, of the integer polynomial p of degree
    below ``len(values)`` with p(k) = values[k], k = 0, 1, ...

    The k-th Newton divided difference on these points is p's coefficient
    in the falling-factorial basis z(z-1)...(z-k+1).  Each power z^m is an
    integer combination of falling factorials (Stirling numbers of the
    second kind), so for integer p every difference, at every start point,
    is an integer and each division by k is exact (``_exact_div`` checks).
    """
    diffs = list(values)
    n = len(diffs) - 1
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
    return coeffs


def bareiss_solve(m: list[list[int]]) -> tuple[int, list[int]]:
    """``(det A, det(A) A^{-1} b)`` from the rows of ``[A | b]``, for an int
    matrix A whose leading principal minors, the pivots, are nonzero.

    Bareiss elimination (Math. Comp. 22, 1968) runs in place without a row
    swap, and a zero pivot raises ``ArithmeticError``; each division by the
    previous pivot is exact by the Bareiss identity.  The last pivot is
    det A, and back substitution on y = det(A) A^{-1} b, an integer vector
    by Cramer's rule, divides exactly.
    """
    n = len(m)
    prev = 1
    for k in range(n):
        top = m[k]
        pivot = top[k]
        if not pivot:
            raise ArithmeticError("zero pivot in fraction-free elimination")
        rest = top[k + 1 :]
        for row in m[k + 1 :]:
            lead = row[k]
            if lead:
                row[k + 1 :] = [
                    (pivot * x - lead * y) // prev for x, y in zip(row[k + 1 :], rest)
                ]
            else:
                row[k + 1 :] = [pivot * x // prev for x in row[k + 1 :]]
        prev = pivot
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = prev * row[n] - sum(map(mul, row[i + 1 : n], y[i + 1 :]))
        y[i] = _exact_div(acc, row[i])
    return prev, y


def resolvent_row(
    t: Sequence[Sequence[Fraction]], cols: Sequence[int]
) -> tuple[Poly, list[Poly]]:
    """det(I - zT) and the entries adj(I - zT)[0][j] for j in ``cols``.

    Every row of T must have absolute sum at most 1, else ``ValueError``.
    Clearing denominators, row i of I - zT is (a_i + z B_i) / a_i, with an
    integer a_i > 0 on the diagonal of A and an integer row B_i.  So the
    determinant is p(z) / prod(a) and entry (0, j), which drops row j, is
    a_j q_j(z) / prod(a), where p = det(A + zB) and q_j = adj(A + zB)[0][j]
    are integer polynomials of degree at most n and n - 1.

    *Rescale.*  At the nodes z = k/(n+1), k = 0..n, the integer matrix
    N_k = (n+1)A + kB = (n+1)(A + zB) has det N_k = (n+1)^n p(z) and
    adj(N_k)[0][j] = (n+1)^(n-1) q_j(z), integer polynomials in k whose
    coefficient m is p_m (n+1)^(n-m) and q_jm (n+1)^(n-1-m): ``interpolate``
    gives them, and dividing by the power of n + 1 is exact.

    *Dominance lemma.*  For |z| < 1, I - zT is strictly diagonally
    dominant, |1 - z t_ii| >= 1 - |z t_ii| > |z| sum_{j != i} |t_ij| as
    |z| sum_j |t_ij| < 1, and so is each leading principal block I - zT'.
    They are nonsingular (Levy-Desplanques), also after positive row
    scaling and transposition.  Every node has 0 <= z < 1, so each pivot
    of ``bareiss_solve`` on N_k^T is nonzero.  With b = e_0 it gives
    det(N_k) N_k^{-T} e_0, whose entry j is adj(N_k)[0][j].  Integer
    nodes would not do: I - zT is singular at z = 2 on some cells.
    """
    n = len(t)
    if any(len(r) != n for r in t):
        raise ValueError("matrix must be square")
    diag, b_cols = [], [[0] * n for _ in range(n)]  # b_cols[j][i] is B[i][j]
    for i, row in enumerate(t):
        ints, _ = clear_denominators([1, *(-x for x in row)])
        if sum(map(abs, ints[1:])) > ints[0]:
            raise ValueError("resolvent_row needs row absolute sums at most 1")
        diag.append(ints[0])
        for col, b in zip(b_cols, ints[1:]):
            col[i] = b
    s = n + 1

    def node(k: int) -> tuple[int, list[int]]:
        mt = [[k * b for b in col] + [int(j == 0)] for j, col in enumerate(b_cols)]
        for j, a in enumerate(diag):
            mt[j][j] += s * a
        return bareiss_solve(mt)

    def rescaled(values: Sequence[int], top: int, scale: Fraction) -> Poly:
        coeffs = interpolate(values[: top + 1])
        return Poly.from_ints(
            (_exact_div(c, s ** (top - m)) for m, c in enumerate(coeffs)), scale
        )

    dets, ys = zip(*map(node, range(s)))
    total = prod(diag)
    return rescaled(dets, n, Fraction(1, total)), [
        rescaled([y[j] for y in ys], n - 1, Fraction(diag[j], total)) for j in cols
    ]
