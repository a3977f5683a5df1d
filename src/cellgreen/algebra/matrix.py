"""Exact linear algebra in integers.

``bareiss_solve`` is the one fraction-free elimination: it gives a
determinant and the Cramer numerators of one right-hand column.
``resolvent_row`` runs it once, on an integer matrix at z = 1/2^K, and
reads the polynomial coefficients off the balanced base-2^K digits that
``balanced_digits`` decodes; ``harmonic.harmonic_function`` runs it on
the cell's mean-value system.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from .poly import Poly, _exact_div, clear_denominators


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


def balanced_digits(v: int, k: int, top: int) -> list[int]:
    """Coefficients c_0..c_top, lowest first, of v = sum_m c_m 2^(k(top-m))
    with every |c_m| < 2^(k-1); ``ArithmeticError`` if v needs more digits.

    The lowest digit is the residue of v mod 2^k in [-2^(k-1), 2^(k-1)),
    and the others are the digits of the exact quotient, so they are
    unique.  Anything left after top + 1 digits means that some |c_m|
    reached 2^(k-1) or that v has a term beyond c_0.
    """
    half, mask = 1 << (k - 1), (1 << k) - 1
    digits = []
    for _ in range(top + 1):
        d = ((v + half) & mask) - half
        digits.append(d)
        v = (v - d) >> k
    if v:
        raise ArithmeticError("integer has more base-2^k digits than asked for")
    return digits[::-1]


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

    *Kronecker substitution.*  The integer matrix N = XA + B, X = 2^K, is
    X(A + zB) at z = 1/X, so det N = sum_m p_m X^(n-m) and adj(N)[0][j] =
    sum_m q_jm X^(n-1-m): ``balanced_digits`` reads the coefficients off
    these integers, highest power first, once every |p_m| and |q_jm| is
    below X/2.

    *Bound.*  By Leibniz's formula p is a signed sum, over permutations s,
    of the products of the entries (A + zB)[i][s(i)].  The absolute sum of
    a product's coefficients is at most the product of the factors' own:
    a_i + |b_ii| on the diagonal and |b_ij| off it.  So every |p_m| is at
    most the permanent of these sums, and so at most the product of its
    row sums, bound = prod_i (a_i + sum_j |b_ij|).  q_j is, up to sign,
    the minor without row j and column 0: the same argument bounds it by
    bound over row j's sum, which is at least a_j >= 1.
    K = bound.bit_length() + 1 gives X > 2 bound.

    *Dominance lemma.*  For |z| < 1, I - zT is strictly diagonally
    dominant, |1 - z t_ii| >= 1 - |z t_ii| > |z| sum_{j != i} |t_ij| as
    |z| sum_j |t_ij| < 1, and so is each leading principal block I - zT'.
    They are nonsingular (Levy-Desplanques), also after positive row
    scaling and transposition.  As 0 < z = 1/X <= 1/4, each pivot of
    ``bareiss_solve`` on N^T is nonzero.  With b = e_0 it gives
    det(N) N^{-T} e_0, whose entry j is adj(N)[0][j].
    """
    n = len(t)
    if any(len(r) != n for r in t):
        raise ValueError("matrix must be square")
    diag, b_cols = [], [[0] * n for _ in range(n)]  # b_cols[j][i] is B[i][j]
    bound = 1
    for i, row in enumerate(t):
        ints, _ = clear_denominators([1, *(-x for x in row)])
        weight = sum(map(abs, ints[1:]))
        if weight > ints[0]:
            raise ValueError("resolvent_row needs row absolute sums at most 1")
        diag.append(ints[0])
        bound *= ints[0] + weight
        for col, b in zip(b_cols, ints[1:]):
            col[i] = b
    k = bound.bit_length() + 1
    for j, a in enumerate(diag):  # b_cols becomes the rows of [N^T | e_0]
        b_cols[j][j] += a << k
        b_cols[j].append(int(j == 0))
    det, y = bareiss_solve(b_cols)
    total = prod(diag)
    return Poly.from_ints(balanced_digits(det, k, n), Fraction(1, total)), [
        Poly.from_ints(balanced_digits(y[j], k, n - 1), Fraction(diag[j], total))
        for j in cols
    ]
