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
it moved to integers.  fraction_series expands a rational function by its
recurrence in Fractions, the reference for the integer expansion in
w = z / L that cell series take.
det_bareiss, det_linear and _cofactor are the determinant and cofactor
routes that cell_functions used before resolvent_row: one Bareiss
elimination, with row swaps, per determinant or cofactor at each integer
point z = 0..n.  interpolated_resolvent_row is the route resolvent_row
took before it evaluated once at z = 1/2^K: one elimination per node
z = k/(n+1), k = 0..n, each giving the determinant and a whole adjugate
row, and Newton interpolation in k (interpolate).  resolvent_det and
green_entry give any entry of (I - zT)^{-1} for the cross-checks, even
where I - zT is not diagonally dominant; they take T as Fraction rows,
which fraction_rows builds from the integer row scales and rows that
resolvent_row takes, and integer_rows turns back.  grid_expansion samples the
expansion inequalities that spectral_property_report certifies.
reference_monte_carlo is the per-walker walk that monte_carlo's count
walk replaced, kept as a reference in law; reference_count_walk is the
count walk one vertex at a time, which must give monte_carlo's hits
exactly; adjacency lists an approximant's neighbours per vertex.
log_ratio encloses ln(a)/ln(b), the quotient that invariants
builds from its ln brackets.  rf_add, rf_neg, rf_sub, rf_mul and rf_div
are the RatFunc field arithmetic, which only tests use.  poly_divmod is
the euclidean division of Polys over Fractions, the reference for the
exact ``//`` that Poly keeps, and poly_pow is a Poly power by squaring.
solve_linear is Gaussian elimination over Fractions, with row swaps, the
route harmonic_function took before its fraction-free solve in integers.
scan_graph_classes is the orderly scan of edge masks one relabeling at a
time, the route connected_graph_classes took before its byte tables.
fraction_atanh_bracket and fraction_ln_bracket sum the atanh series one
Fraction term at a time, the route of ln_bracket before its integer sums.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from cellgreen.algebra import (
    Bracket,
    Poly,
    RatFunc,
    ln_bracket,
)
from cellgreen.algebra.brackets import DEFAULT_LOG_ERR
from cellgreen.algebra.matrix import _exact_div, bareiss_solve
from cellgreen.algebra.poly import clear_denominators
from cellgreen.algebra.series import pack_slots, scaled_fractions, unpack_slots
from cellgreen.greenkernel import CellFunctions
from cellgreen.iteration import GreenSeries


Scalar = Union[Fraction, int]
Matrix = list[list[Fraction]]


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


def integer_content(coeffs: Sequence[Scalar]) -> tuple[list[int], Fraction]:
    """``(ints, c)``: coprime integers and a rational ``c > 0``, coeffs == c * ints."""
    ints, den = clear_denominators(coeffs)
    g = math.gcd(*ints) or 1
    return [v // g for v in ints], Fraction(g, den)


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


def fraction_rows(a: Sequence[int], c: Sequence[Sequence[int]]) -> Matrix:
    """T = diag(a)^-1 C as Fraction rows, for the routes that take T."""
    return [[Fraction(x, s) for x in row] for s, row in zip(a, c)]


def integer_rows(t: Matrix) -> tuple[list[int], list[list[int]]]:
    """``(a, c)`` with T = diag(a)^-1 C: each row over the lcm of its
    denominators, 1 for a zero row."""
    cleared = [clear_denominators(row) for row in t]
    return [den for _, den in cleared], [ints for ints, _ in cleared]


def interpolated_resolvent_row(
    a: Sequence[int], c: Sequence[Sequence[int]], cols: Sequence[int]
) -> tuple[Poly, list[Poly]]:
    """``resolvent_row(a, c, cols)`` by n + 1 eliminations and interpolation.

    With A = diag(a) and C as in ``resolvent_row``, at the nodes z = k/(n+1),
    k = 0..n, the integer matrix N_k = (n+1)A - kC = (n+1)(A - zC) has
    det N_k = (n+1)^n p(z) and adj(N_k)[0][j] = (n+1)^(n-1) q_j(z),
    integer polynomials in k whose coefficient m is p_m (n+1)^(n-m) and
    q_jm (n+1)^(n-1-m): ``interpolate`` gives them, and dividing by the
    power of n + 1 is exact.  Every node has 0 <= z < 1, where the
    dominance lemma makes each pivot nonzero.
    """
    n = len(a)
    s = n + 1

    def node(k: int) -> tuple[int, list[int]]:
        mt = [[-k * x for x in col] for col in zip(*c)]
        for j, d in enumerate(a):
            mt[j][j] += s * d
            mt[j].append(int(j == 0))
        return bareiss_solve(mt)

    def rescaled(values: Sequence[int], top: int, scale: Fraction) -> Poly:
        coeffs = interpolate(values[: top + 1])
        return Poly.from_ints(
            (_exact_div(v, s ** (top - m)) for m, v in enumerate(coeffs)), scale
        )

    dets, ys = zip(*map(node, range(s)))
    total = math.prod(a)
    return rescaled(dets, n, Fraction(1, total)), [
        rescaled([y[j] for y in ys], n - 1, Fraction(a[j], total)) for j in cols
    ]


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


def fraction_series(r: RatFunc, order: int) -> PowerSeries:
    """Reference expansion: the recurrence of r's coefficients in Fractions."""
    den0 = r.den.coefficient(0)
    out: list[Fraction] = []
    for n in range(order):
        s = r.num.coefficient(n)
        for k in range(1, min(n, r.den.degree) + 1):
            s -= r.den.coefficient(k) * out[n - k]
        out.append(s / den0)
    return PowerSeries(out, order)


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
    f_ser = fraction_series(cf.f, count)
    d_ser = fraction_series(cf.d, count)
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
    f_ser = fraction_series(cf.f, count)
    d_ser = fraction_series(cf.d, count)
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


def reference_monte_carlo(a, n, trials, seed) -> int:
    """The hits of the per-walker walk that the count walk replaced: the
    same stream, one batch of vertex ids stepped with one
    rng.integers(0, degrees) call per step."""
    deg = np.diff(a.indptr)
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(stream))
    at = np.full(trials, a.origin, dtype=np.int64)
    for _ in range(n):
        at = a.indices[a.indptr[at] + rng.integers(0, deg[at])]
    return int(np.count_nonzero(at == a.origin))


def reference_count_walk(a, n, trials, seed) -> int:
    """The hits of monte_carlo's count walk, one occupied vertex at a time.

    The same stream; the walk keeps a dict of vertex counts, and every step
    visits its occupied vertices by degree, then by vertex, with one scalar
    rng.multinomial call each, which is the order of monte_carlo's
    vectorised calls.
    """
    deg = np.diff(a.indptr).tolist()
    ptr = a.indptr.tolist()
    nbr = a.indices.tolist()
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(stream))
    counts = {a.origin: trials}
    for _ in range(n):
        moved = {}
        for v in sorted(counts, key=lambda v: (deg[v], v)):
            if counts[v]:
                split = rng.multinomial(counts[v], [1 / deg[v]] * deg[v])
                for u, c in zip(nbr[ptr[v] : ptr[v + 1]], split.tolist()):
                    moved[u] = moved.get(u, 0) + c
        counts = moved
    return counts.get(a.origin, 0)


def adjacency(a) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbour tuple of every vertex of an approximant."""
    flat = a.indices.tolist()
    ends = a.indptr.tolist()
    return tuple(tuple(flat[s:e]) for s, e in zip(ends, ends[1:]))


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


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over Fractions; remainder degree < divisor degree."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem, div = list(a.coeffs), b.coeffs
    dq = len(rem) - len(div)
    if dq < 0:
        return Poly(), a
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = quo[k] = rem[k + b.degree] / div[-1]
        if c:
            for j, x in enumerate(div, k):
                rem[j] -= c * x
    return Poly(quo), Poly(rem[: b.degree])


def poly_pow(p: Poly, n: int) -> Poly:
    """p**n for n >= 0 by repeated squaring."""
    if n < 0:
        raise ValueError("negative power")
    result = Poly([1])
    while n:
        if n & 1:
            result = result * p
        p = p * p
        n >>= 1
    return result


class SingularMatrixError(ArithmeticError):
    pass


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> list:
    """Solve A x = b by Gaussian elimination over an exact field.

    Entries are Fractions, or anything else with field arithmetic and a
    zero test.  Raises SingularMatrixError when A is not invertible.
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


def scan_graph_classes(m: int) -> tuple[tuple[frozenset, tuple], ...]:
    """Connected graphs on m labeled vertices, one per class, with their
    automorphism groups: each connected mask not yet seen, scanned in
    increasing order, is emitted, and its images under every relabeling
    are marked seen."""
    pairs = list(itertools.combinations(range(m), 2))
    perms = list(itertools.permutations(range(m)))
    bits = [
        [1 << pairs.index(tuple(sorted((p[a], p[b])))) for a, b in pairs]
        for p in perms
    ]
    seen: set[int] = set()
    out = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        on = [i for i in range(len(pairs)) if mask >> i & 1]
        reach, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for i in on:
                if v in pairs[i]:
                    u = pairs[i][0] + pairs[i][1] - v
                    if u not in reach:
                        reach.add(u)
                        stack.append(u)
        if len(reach) != m:
            continue
        images = [sum(pb[i] for i in on) for pb in bits]
        seen.update(images)
        group = tuple(p for p, image in zip(perms, images) if image == mask)
        out.append((frozenset(pairs[i] for i in on), group))
    return tuple(out)


def fraction_atanh_bracket(t: Fraction, abs_err: Fraction) -> Bracket:
    """atanh(t) for |t| < 1 by the odd series, one Fraction term at a time,
    stopping at the first tail bound |t|^(2k+1) / ((2k+1)(1 - t^2)) below
    abs_err."""
    if t == 0:
        return Bracket.point(0)
    t2 = t * t
    term = t
    total = Fraction(0)
    k = 0
    while True:
        total += term / (2 * k + 1)
        k += 1
        term *= t2
        tail = abs(term) / ((2 * k + 1) * (1 - t2))
        if tail < abs_err:
            return Bracket(total - tail, total + tail)


def fraction_ln_bracket(q: Fraction, abs_err: Fraction = DEFAULT_LOG_ERR) -> Bracket:
    """ln(q) = 2 atanh((m - 1)/(m + 1)) + k ln 2, m = q / 2^k in [3/4, 3/2),
    with Fraction halvings and the Fraction series."""
    k = 0
    m = Fraction(q)
    while m >= Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    half = abs_err / 2
    series = fraction_atanh_bracket((m - 1) / (m + 1), half / 2) * Bracket.point(2)
    if k == 0:
        return series
    ln2 = fraction_atanh_bracket(Fraction(1, 3), half / (2 * abs(k)) / 2)
    return series + ln2 * Bracket.point(2) * Bracket.point(k)
