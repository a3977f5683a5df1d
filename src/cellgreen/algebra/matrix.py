"""Exact linear algebra in integers.

``bareiss_solve`` is the one fraction-free elimination: it gives a
determinant and the Cramer numerators of one right-hand column.
``resolvent_row`` takes a walk matrix as integer row scales and integer
rows, T = diag(a)^-1 C (for a cell, the degrees and the masked adjacency
rows), runs it once on the integer matrix diag(a) - zC at z = 1/2^K, and
reads the polynomial coefficients off the balanced base-2^K digits that
``balanced_digits`` decodes; ``harmonic.harmonic_function`` runs it on
the cell's mean-value system.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from .poly import Poly, _exact_div


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
    a: Sequence[int], c: Sequence[Sequence[int]], cols: Sequence[int]
) -> tuple[Poly, list[Poly]]:
    """det(I - zT) and the entries adj(I - zT)[0][j] for j in ``cols``,
    where T = diag(a)^-1 C for integer row scales a_i and integer rows C_i.

    Every a_i must be at least 1, and every row of T must have absolute sum
    at most 1, that is sum_j |c_ij| <= a_i, else ``ValueError``.  Row i of
    I - zT is (a_i - z C_i) / a_i, so the determinant is p(z) / prod(a) and
    entry (0, j), which drops row j, is a_j q_j(z) / prod(a), where
    p = det(A - zC) and q_j = adj(A - zC)[0][j] are integer polynomials of
    degree at most n and n - 1, with A = diag(a).  For a cell, a holds the
    degrees and C the masked adjacency rows.

    *Kronecker substitution.*  The integer matrix N = XA - C, X = 2^K, is
    X(A - zC) at z = 1/X, so det N = sum_m p_m X^(n-m) and adj(N)[0][j] =
    sum_m q_jm X^(n-1-m): ``balanced_digits`` reads the coefficients off
    these integers, highest power first, once every |p_m| and |q_jm| is
    below X/2.

    *Bound.*  By Leibniz's formula p is a signed sum, over permutations s,
    of the products of the entries (A - zC)[i][s(i)].  The absolute sum of
    a product's coefficients is at most the product of the factors' own:
    a_i + |c_ii| on the diagonal and |c_ij| off it.  So every |p_m| is at
    most the permanent of these sums, and so at most the product of its
    row sums, bound = prod_i (a_i + sum_j |c_ij|).  q_j is, up to sign,
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
    n = len(a)
    if len(c) != n or any(len(r) != n for r in c):
        raise ValueError("matrix must be square")
    if any(s < 1 for s in a):
        raise ValueError("resolvent_row needs positive row scales")
    bound = 1
    for s, row in zip(a, c):
        weight = sum(map(abs, row))
        if weight > s:
            raise ValueError("resolvent_row needs row absolute sums at most 1")
        bound *= s + weight
    k = bound.bit_length() + 1
    # Row j of [N^T | e_0] is column j of N = XA - C, then entry j of e_0.
    nt = [[-x for x in col] + [int(j == 0)] for j, col in enumerate(zip(*c))]
    for j, s in enumerate(a):
        nt[j][j] += s << k
    det, y = bareiss_solve(nt)
    total = prod(a)
    return Poly.from_ints(balanced_digits(det, k, n), Fraction(1, total)), [
        Poly.from_ints(balanced_digits(y[j], k, n - 1), Fraction(a[j], total))
        for j in cols
    ]
