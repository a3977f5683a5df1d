"""Reference routes that only tests use.

PowerSeries is the rational truncated series arithmetic that the Green's
series ran on before it moved to integers in w = z / L: a product by one
signed big-integer product (signed_product, which settles the borrows of
negative slots) and a Horner composition.  star_series is the rational
expansion of 1/sqrt(1 - z^2), the closed form that classify checks in
integers.  nested_green_series is the nesting of green_series, the same
levels, each a PowerSeries composition and product.  green_series_recursion
solves G = f (G over d) one coefficient at a time, a reference for the
nesting; verify no longer runs it, because its functional_residual item
with G(0) = 1 implies the same coefficients.  fraction_residual is
G - f (G over d) in PowerSeries, the route functional_residual took before
it moved to integers.
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
exactly.  log_ratio encloses ln(a)/ln(b), the quotient that invariants
builds from its ln brackets.  rf_add, rf_neg, rf_sub, rf_mul and rf_div
are the RatFunc field arithmetic, which only tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from cellgreen.algebra import (
    Bracket,
    Poly,
    RatFunc,
    ln_bracket,
    series_from_ratfunc,
)
from cellgreen.algebra.brackets import DEFAULT_LOG_ERR
from cellgreen.algebra.matrix import _exact_div, interpolate
from cellgreen.algebra.poly import clear_denominators, integer_content
from cellgreen.algebra.series import pack_slots, scaled_fractions, unpack_slots
from cellgreen.greenkernel import CellFunctions, Matrix
from cellgreen.iteration import GreenSeries


Scalar = Union[Fraction, int]


class PowerSeries:
    """Immutable truncated series: ``coeffs`` has length exactly ``order``.

    It stores exactly ``order`` known coefficients (indices 0..order-1);
    everything from z**order on is unknown.  Arithmetic propagates the
    number of known coefficients conservatively so a result never claims
    more knowledge than its inputs justify.

    The product of two series is one big-integer product, ``signed_product``:
    each operand's first ``n = min(orders)`` coefficients are written as
    integer numerators over the lcm of their denominators, and ``Fraction``
    reduces each numerator of the product over the product of those lcms
    to the canonical coefficient that the schoolbook sum would give.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs.extend(Fraction(0) for _ in range(order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls([1] if order > 0 else [], order)

    # -- queries ---------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} is beyond the known order {self.order}")
        return self.coeffs[k]

    def valuation(self) -> int:
        """Index of the first nonzero known coefficient, or ``order`` if none."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order

    @property
    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> PowerSeries:
        if order > self.order:
            raise ValueError("cannot extend knowledge by truncation")
        return PowerSeries(self.coeffs[:order], order)

    # -- arithmetic: result order = min of operand orders -----------------

    def __add__(self, other: PowerSeries) -> PowerSeries:
        n = min(self.order, other.order)
        return PowerSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n)], n
        )

    def __neg__(self) -> PowerSeries:
        return PowerSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        return self + (-other)

    def __mul__(self, other: PowerSeries | Scalar) -> PowerSeries:
        if isinstance(other, (Fraction, int)):
            return PowerSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        if n == 0:
            return PowerSeries([], 0)
        a, den_a = clear_denominators(self.coeffs[:n])
        b, den_b = clear_denominators(other.coeffs[:n])
        den = den_a * den_b
        return PowerSeries([Fraction(c, den) for c in signed_product(a, b, n)], n)

    __rmul__ = __mul__

    def compose(self, inner: PowerSeries) -> PowerSeries:
        """Substitute ``inner`` for the variable.

        Requires valuation(inner) >= 1 (a nonzero constant term would feed the
        unknown tail of the outer series into every coefficient).  The result
        carries order

            n = min(inner.order, outer.order * max(valuation(inner), 1))

        because the unknown tail of the outer series contributes only from
        z**(outer.order * valuation) on, while the unknown tail of the inner
        series perturbs the result from z**inner.order on.  In particular a
        valuation >= 2 inner with outer.order * valuation >= inner.order
        preserves the inner order, and composing with z of sufficient order
        is the identity.

        Horner's rule runs over outer coefficients k = k_max .. 0 with
        k_max = (n - 1) // val, val = max(valuation(inner), 1): higher
        powers of ``inner`` vanish mod z**n.  The step for coefficient k is
        computed only mod z**(n - k*val), since the accumulator is then
        multiplied by ``inner`` k more times and each product raises its
        valuation by val.  The accumulator is one list of integer numerators
        over a common denominator, reduced by one gcd per step; the
        ``Fraction`` coefficients are built once, at the end.
        """
        if inner.order == 0:
            return PowerSeries([], 0)
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        val = max(inner.valuation(), 1)
        n = min(inner.order, self.order * val)
        if n == 0 or self.order == 0:
            return PowerSeries([], n)
        k_max = min(self.order - 1, (n - 1) // val)
        b, den_b = clear_denominators(inner.coeffs[:n])
        top = self.coeffs[k_max]
        acc, den = [top.numerator], top.denominator
        for k in range(k_max - 1, -1, -1):
            m = n - k * val
            acc = signed_product(acc, b[:m], m)
            den *= den_b
            c = self.coeffs[k]
            scale = c.denominator // math.gcd(den, c.denominator)
            if scale > 1:
                acc = [x * scale for x in acc]
                den *= scale
            acc[0] += c.numerator * (den // c.denominator)
            g = math.gcd(den, *acc)
            if g > 1:
                acc = [x // g for x in acc]
                den //= g
        return PowerSeries([Fraction(x, den) for x in acc], n)

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("PowerSeries", self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r}, order={self.order})"


def signed_product(a: list[int], b: list[int], n: int) -> list[int]:
    """First ``n`` coefficients of the product of signed integer lists.

    One big-integer product by Kronecker substitution.  ``a`` and ``b`` are
    packed into ``A = sum a_i 2**(w*i)`` and ``B`` likewise; then
    ``A*B = sum c_k 2**(w*k)`` with ``c_k = sum_{i+j=k} a_i b_j``.

    The slot width ``w`` is ``bits(max|a|) + bits(max|b|) + bits(n) + 2``,
    rounded up to whole bytes.  Slot ``k < n`` sums at most ``n`` products,
    whatever the lengths of ``a`` and ``b``, so ``|c_k| < 2**(w-2)``: no
    slot overflows into its neighbour.  The slots are signed, so a negative
    ``c_k`` borrows from the slot above.  Adding ``2**(w-1)`` to each of the
    low ``n`` slots settles every borrow in one big-integer addition: slot
    ``k`` then holds ``c_k + 2**(w-1)``, which lies in ``[0, 2**w)``, so the
    low ``n*w`` bits split into exactly these digits and the higher slots
    only add multiples of ``2**(n*w)``.  Subtracting ``2**(w-1)`` from each
    digit gives ``c_k`` exactly.
    """
    a, b = a[:n], b[:n]
    width = _bits_of_max(a) + _bits_of_max(b) + n.bit_length() + 2
    size = (width + 7) // 8
    half = 1 << (8 * size - 1)
    low = _pack(a, size) * _pack(b, size) + pack_slots([half] * n, size)
    return [x - half for x in unpack_slots(low, size, n)]


def _bits_of_max(nums: list[int]) -> int:
    return max(max(nums), -min(nums)).bit_length()


def _pack(nums: list[int], size: int) -> int:
    """``sum nums[i] * 256**(size*i)`` for signed ``|nums[i]| < 256**size``."""
    pos = pack_slots([x if x > 0 else 0 for x in nums], size)
    return pos - pack_slots([-x if x < 0 else 0 for x in nums], size)


def star_series(count: int) -> PowerSeries:
    """Expansion of 1/sqrt(1 - z^2): central binomials over powers of four."""
    coeffs = []
    for k in range(count):
        if k % 2:
            coeffs.append(Fraction(0))
        else:
            m = k // 2
            coeffs.append(Fraction(math.comb(2 * m, m), 4**m))
    return PowerSeries(coeffs, count)


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


def _scaled_ints(s: PowerSeries, scale: int) -> tuple[int, ...]:
    """scale^n times coefficient n of s, each an integer (checked)."""
    out = [c * scale**n for n, c in enumerate(s.coeffs)]
    if any(x.denominator != 1 for x in out):
        raise ArithmeticError(f"not an integer series in z/{scale}")
    return tuple(x.numerator for x in out)


def nested_green_series(cf: CellFunctions, order: int) -> GreenSeries:
    """green_series by the same levels, in rational arithmetic.

    With v the valuation of d, each level G mod z^m = f (G mod z^m')(d)
    mod z^m, m' = (m - 1) // v + 1, is one PowerSeries compose and one
    product, from the Fraction expansions of f and d.  The result is
    carried as green_series carries it, as integers in w = z / L, L the
    lcm of the cell degrees.
    """
    count = order + 1
    f_ser = PowerSeries(series_from_ratfunc(cf.f, count))
    d_ser = PowerSeries(series_from_ratfunc(cf.d, count))
    v = cf.d.num.valuation()
    sizes = [count]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] - 1) // v + 1)
    g = PowerSeries.one(1)
    for m in reversed(sizes[:-1]):
        g = f_ser.truncate(m) * g.compose(d_ser.truncate(m))
    scale = math.lcm(*cf.cell.degrees())
    return GreenSeries(
        _scaled_ints(g, scale),
        max(len(sizes) - 1, 1),
        order,
        _scaled_ints(f_ser, scale),
        _scaled_ints(d_ser, scale),
        scale,
    )


def green_series_recursion(cf: CellFunctions, order: int) -> PowerSeries:
    """Coefficients of G solved order-by-order from G = f (G over d).

    Independent of the nesting in green_series: no level sizes, each
    coefficient comes from the full equation, and coefficient n of the
    right side only involves earlier coefficients of G because d starts at
    z^2.  One compose per coefficient, so meant as a cross-check at small
    truncations.  It expands f and d itself, sharing nothing with G.
    """
    count = order + 1
    f_ser = PowerSeries(series_from_ratfunc(cf.f, count))
    d_ser = PowerSeries(series_from_ratfunc(cf.d, count))
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        partial = PowerSeries(coeffs, count)
        rhs = f_ser * partial.compose(d_ser)
        coeffs[n] = rhs.coefficient(n)
    return PowerSeries(coeffs, count)


def fraction_residual(gs: GreenSeries) -> PowerSeries:
    """G - f (G over d) through z^order, in Fractions: the route that
    functional_residual took before it moved to integers in w = z / L."""
    g = PowerSeries(gs.coefficients())
    f, d = (
        PowerSeries(scaled_fractions(ints, 1, gs.scale))
        for ints in (gs.f_ints, gs.d_ints)
    )
    return g - f * g.compose(d)


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
