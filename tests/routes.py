"""Reference routes that only tests use.

det_bareiss, det_linear and _cofactor are the determinant and cofactor
routes that cell_functions used before resolvent_row: one Bareiss
elimination, with row swaps, per determinant or cofactor at each integer
point z = 0..n, where resolvent_row needs one elimination per node for
the determinant and a whole adjugate row.  resolvent_det and green_entry
give any entry of (I - zT)^{-1} for the cross-checks, even where I - zT
is not diagonally dominant.  grid_expansion samples the expansion
inequalities that spectral_property_report certifies.
reference_monte_carlo is the per-walker walk that monte_carlo's count
walk replaced, kept as a reference in law; reference_count_walk is the
count walk one vertex at a time, which must give monte_carlo's hits
exactly.  green_series_recursion solves G = f (G over d) one coefficient
at a time, a reference for the nested expansion of green_series; verify
no longer runs it, because its functional_residual item with G(0) = 1
implies the same coefficients.  nested_green_series is the nesting that
green_series ran before it moved to integers in z / L: the same levels,
each a Fraction composition and product of PowerSeries.  log_ratio
encloses ln(a)/ln(b), the quotient that invariants builds from its ln
brackets.  rf_add, rf_neg, rf_sub, rf_mul and rf_div are the RatFunc
field arithmetic, which only tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from cellgreen.algebra import (
    Bracket,
    Poly,
    PowerSeries,
    RatFunc,
    ln_bracket,
    series_from_ratfunc,
)
from cellgreen.algebra.brackets import DEFAULT_LOG_ERR
from cellgreen.algebra.matrix import _exact_div, interpolate
from cellgreen.algebra.poly import integer_content
from cellgreen.greenkernel import CellFunctions, Matrix
from cellgreen.iteration import GreenSeries


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
    a nonzero remainder raises ``ArithmeticError``.  A zero pivot swaps in
    a lower row.
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
    ``p(z) = det(rows) / prod(c_i)`` has integer coefficients and degree at
    most n, so its values at the n + 1 integer points z = 0..n, each a
    ``det_bareiss`` of an integer matrix, fix it through ``interpolate``;
    the product with ``prod(c_i)`` gives the rational determinant.
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
    values = [
        det_bareiss(
            [[a + z * b for a, b in zip(lo, hi)] for lo, hi in zip(lows, highs)]
        )
        for z in range(n + 1)
    ]
    return Poly(c * scale for c in interpolate(values))


def _resolvent_matrix(t: Matrix) -> list[list[Poly]]:
    n = len(t)
    return [
        [Poly([1 if i == j else 0, -t[i][j]]) for j in range(n)]
        for i in range(n)
    ]


def _cofactor(m: list[list[Poly]], i: int, j: int) -> Poly:
    # Numerator of entry (i, j) of m^{-1}: the minor drops row j and
    # column i, and that transposition is what makes it (i, j), not (j, i).
    numer = det_linear(minor(m, j, i))
    return -numer if (i + j) % 2 else numer


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


def nested_green_series(cf: CellFunctions, order: int) -> GreenSeries:
    """green_series by the same levels, in rational arithmetic.

    With v the valuation of d, each level G mod z^m = f (G mod z^m')(d)
    mod z^m, m' = (m - 1) // v + 1, is one PowerSeries compose and one
    product, from the Fraction expansions of f and d.  The expansions are
    carried as green_series carries them, as integers in w = z / L, L the
    lcm of the cell degrees.
    """
    count = order + 1
    f_ser = series_from_ratfunc(cf.f, count)
    d_ser = series_from_ratfunc(cf.d, count)
    v = cf.d.num.valuation()
    sizes = [count]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] - 1) // v + 1)
    g = PowerSeries.one(1)
    for m in reversed(sizes[:-1]):
        g = f_ser.truncate(m) * g.compose(d_ser.truncate(m))
    scale = math.lcm(*cf.cell.degrees())
    f_ints, d_ints = (
        tuple(int(c * scale**n) for n, c in enumerate(s.coeffs))
        for s in (f_ser, d_ser)
    )
    return GreenSeries(g, max(len(sizes) - 1, 1), order, f_ints, d_ints, scale)


def green_series_recursion(cf: CellFunctions, order: int) -> PowerSeries:
    """Coefficients of G solved order-by-order from G = f (G over d).

    Independent of the nesting in green_series: no level sizes, each
    coefficient comes from the full equation, and coefficient n of the
    right side only involves earlier coefficients of G because d starts at
    z^2.  One compose per coefficient, so meant as a cross-check at small
    truncations.  It expands f and d itself, sharing nothing with G.
    """
    count = order + 1
    f_ser = series_from_ratfunc(cf.f, count)
    d_ser = series_from_ratfunc(cf.d, count)
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        partial = PowerSeries(coeffs, count)
        rhs = f_ser * partial.compose(d_ser)
        coeffs[n] = rhs.coefficient(n)
    return PowerSeries(coeffs, count)


def _derivative(r: RatFunc) -> RatFunc:
    n, d = r.num, r.den
    return RatFunc(n.derivative() * d - n * d.derivative(), d * d)


def grid_expansion(cf: CellFunctions, points: int = 32) -> bool:
    """d(z) > z, d'(z) > 1 and d''(z) > 0 at ``points`` evenly spaced
    rationals in (1, rho_d): the sampled check that the Sturm certificate
    of spectral_property_report replaced, kept as its reference."""
    rho_d = cf.rho_d
    while rho_d.low <= 1:
        rho_d = rho_d.refine(rho_d.width / 16)
    dp = _derivative(cf.d)
    dpp = _derivative(dp)
    step = (rho_d.low - 1) / (points + 1)
    grid = (1 + step * k for k in range(1, points + 1))
    return all(cf.d(x) > x and dp(x) > 1 and dpp(x) > 0 for x in grid)


def reference_monte_carlo(a, n, trials, seed, workers=1) -> int:
    """The hits of the per-walker walk that the count walk replaced: the
    same streams and trial split, each stream one batch of vertex ids
    stepped with one rng.integers(0, degrees) call per step."""
    deg = np.diff(a.indptr)
    streams = np.random.SeedSequence(seed).spawn(workers)
    base, rem = divmod(trials, workers)
    hits = 0
    for w in range(workers):
        rng = np.random.Generator(np.random.PCG64(streams[w]))
        at = np.full(base + (1 if w < rem else 0), a.origin, dtype=np.int64)
        for _ in range(n):
            at = a.indices[a.indptr[at] + rng.integers(0, deg[at])]
        hits += int(np.count_nonzero(at == a.origin))
    return hits


def reference_count_walk(a, n, trials, seed, workers=1) -> int:
    """The hits of monte_carlo's count walk, one occupied vertex at a time.

    The same streams and trial split; each stream keeps a dict of vertex
    counts, and every step visits its occupied vertices by degree, then by
    vertex, with one scalar rng.multinomial call each, which is the order
    of monte_carlo's vectorised calls.
    """
    deg = np.diff(a.indptr).tolist()
    ptr = a.indptr.tolist()
    nbr = a.indices.tolist()
    streams = np.random.SeedSequence(seed).spawn(workers)
    base, rem = divmod(trials, workers)
    hits = 0
    for w in range(workers):
        rng = np.random.Generator(np.random.PCG64(streams[w]))
        counts = {a.origin: base + (1 if w < rem else 0)}
        for _ in range(n):
            moved = {}
            for v in sorted(counts, key=lambda v: (deg[v], v)):
                if counts[v]:
                    split = rng.multinomial(counts[v], [1 / deg[v]] * deg[v])
                    for u, c in zip(nbr[ptr[v] : ptr[v + 1]], split.tolist()):
                        moved[u] = moved.get(u, 0) + c
            counts = moved
        hits += counts.get(a.origin, 0)
    return hits


def _field(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)


def rf_add(x, y) -> RatFunc:
    x, y = _field(x), _field(y)
    return RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)


def rf_neg(x) -> RatFunc:
    x = _field(x)
    return RatFunc(-x.num, x.den)


def rf_sub(x, y) -> RatFunc:
    return rf_add(x, rf_neg(y))


def rf_mul(x, y) -> RatFunc:
    x, y = _field(x), _field(y)
    return RatFunc(x.num * y.num, x.den * y.den)


def rf_div(x, y) -> RatFunc:
    x, y = _field(x), _field(y)
    if y.is_zero:
        raise ZeroDivisionError("division by the zero rational function")
    return RatFunc(x.num * y.den, x.den * y.num)


def log_ratio(
    a: Fraction | int, b: Fraction | int, abs_err: Fraction = DEFAULT_LOG_ERR
) -> Bracket:
    """Enclosure of ln(a)/ln(b) for positive rationals with b != 1."""
    num = ln_bracket(a, abs_err)
    den = ln_bracket(b, abs_err)
    return num / den
