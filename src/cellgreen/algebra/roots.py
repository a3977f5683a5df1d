"""Exact real root isolation for rational polynomials.

Roots are carried as ``IsolatedRoot`` brackets: a rational interval
[low, high] whose interior contains exactly one distinct real root of the
defining polynomial, with endpoints that are never roots themselves.  All
decisions (counting, comparison, equality) are made exactly, by root
counts and polynomial gcds; floating point appears only in diagnostics.

Root counts are Descartes' rule of signs alone.  The sign variations V
of ``(1 + t)^n p((lo + hi t) / (1 + t))`` bound the roots of p in
(lo, hi), counted with multiplicity, from above and share their parity
(Descartes' rule on an interval; Collins and Akritas, SYMSAC 1976).  So
V = 0 proves that there is no root and V = 1 that there is exactly one,
a simple one.  For V >= 2 the interval of the squarefree part is bisected
until every piece has V <= 1, which Collins and Akritas show ends, and
the pieces' bounds add up to the exact count.  Sign tests and the
variation count run on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import ne

from .brackets import Bracket
from .poly import Poly, _homogeneous_horner, poly_gcd, squarefree_part

DEFAULT_WIDTH = Fraction(1, 2**30)


class NoPositiveRootError(ValueError):
    """The polynomial has no root in (0, infinity)."""


def _scaled_ints(p: Poly, lo: Fraction, hi: Fraction) -> list[int]:
    """The integers r_j of ``D^n p(lo + (hi - lo) s) = sum r_j s^j``.

    With lo = a / D, hi = c / D and w = c - a, this is the integer Horner
    ``r = r (a + w s) + p_i D^(n - i)``.  r(0) and r(1) are D^n p(lo) and
    D^n p(hi), and ``_lattice_sign(r, j, k)`` is the sign of p at
    lo + (hi - lo) j / 2^k.
    """
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    r = [p.ints[-1]]
    scale = 1
    for c in reversed(p.ints[:-1]):
        scale *= den
        r = [a * x + w * y for x, y in zip(r + [0], [0, *r])]
        r[0] += c * scale
    return r


def descartes_bound(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Sign variations V of ``(1 + t)^n p((lo + hi t) / (1 + t))``, lo < hi.

    t > 0 maps onto x in (lo, hi), so V bounds the roots of p in (lo, hi),
    counted with multiplicity, and has their parity.  With r the
    ``_scaled_ints`` of p on (lo, hi), the polynomial above is
    ``sum r_j t^j (1 + t)^(n - j) / D^n``.  Its reversal, which has the
    same variations, is R(1 + t) for R(u) = sum r_j u^(n - j), whose
    coefficients from the top are r_0, ..., r_n: one Taylor shift of the
    list r.  ``ValueError`` when p(lo) or p(hi) is 0.
    """
    r = _scaled_ints(p, lo, hi)
    if not r[0] or not sum(r):
        raise ValueError("interval endpoint is a root")
    # Each pass of the Taylor shift by 1 is a running sum over the list,
    # read from the top, that fixes one more coefficient at its end.
    for k in range(len(r), 1, -1):
        r[:k] = accumulate(r[:k])
    signs = [c > 0 for c in r if c]
    return sum(map(ne, signs, signs[1:]))


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the open interval (lo, hi).

    Endpoints must not be roots.  ``descartes_bound`` decides V <= 1: the
    root count with multiplicity is at most V and has V's parity, so it is
    V, and a single root is simple.  For V >= 2, (lo, hi) is bisected as
    the squarefree part sf, whose roots are those of p, each simple.  The
    pieces are lo + (hi - lo) (a, b) / 2^k, each split at the non-root
    ``_lattice_midpoint``, until every piece has V <= 1; then each V is
    the piece's count and they add up to the count on (lo, hi).  This
    ends (Collins and Akritas, SYMSAC 1976): the roots of sf are distinct,
    and a piece has V = 0 when the disc on it as diameter holds no complex
    root, and V = 1 when the circumdiscs of the two equilateral triangles
    on it hold just one.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if lo >= hi:
        return 0
    v = descartes_bound(p, lo, hi)
    if v <= 1:
        return v
    sf = squarefree_part(p)
    cs, span = _scaled_ints(sf, lo, hi), hi - lo
    count, pieces = 0, [(0, 1, 0)]
    while pieces:
        a, b, k = pieces.pop()
        step = span / (1 << k)
        v = descartes_bound(sf, lo + a * step, lo + b * step)
        if v <= 1:
            count += v
        else:
            j, e, _ = _lattice_midpoint(cs, a, b, k)
            pieces += [(a << (e - k), j, e), (j, b << (e - k), e)]
    return count


def cauchy_bound(p: Poly) -> Fraction:
    """Strict upper bound on the absolute value of every root."""
    if p.degree < 0:
        raise ValueError("zero polynomial")
    # The content cancels from the ratio.
    return 1 + Fraction(max(map(abs, p.ints[:-1]), default=0), abs(p.ints[-1]))


@dataclass(frozen=True)
class IsolatedRoot(Bracket):
    """One real algebraic number: the unique root of ``defining`` in (low, high)."""

    defining: Poly
    multiplicity: int = 1

    def refine(self, width: Fraction) -> IsolatedRoot:
        """Shrink the bracket below the requested width by exact bisection.

        When p has opposite signs at the endpoints, the bracket's one root
        has odd multiplicity, and the half over which p changes sign holds
        it; the sign of p at the midpoint picks that half, whatever the
        ``multiplicity`` field says.  Otherwise a root count picks it.
        """
        p = self.defining
        lo, hi = self.low, self.high
        sign_lo = p.sign_at(lo)
        odd = sign_lo != p.sign_at(hi)
        while hi - lo > width:
            m = (lo + hi) / 2
            sign_m = p.sign_at(m)
            if sign_m == 0:
                # The bracket's unique root is exactly m; any strict
                # sub-interval around m has non-root endpoints.
                delta = min(hi - m, m - lo, width) / 4
                return IsolatedRoot(m - delta, m + delta, p, self.multiplicity)
            if (sign_m != sign_lo) if odd else count_roots(p, lo, m):
                hi = m
            else:
                lo = m
        return IsolatedRoot(lo, hi, p, self.multiplicity)


def _multiplicity_in_bracket(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Multiplicity in p of its one distinct root in (lo, hi).

    gcd(q, q') has each root of q with one less multiplicity, so the root's
    multiplicity is the number of members of p, gcd(p, p'), ... that vanish
    in the bracket.  Each member divides p, so lo and hi are not its roots.
    """
    mult = 0
    while p.degree > 0 and count_roots(p, lo, hi):
        mult += 1
        p = poly_gcd(p, p.derivative())
    return max(mult, 1)


def _lattice_sign(cs: list[int], j: int, k: int) -> int:
    """The sign of ``sum cs[i] (j / 2^k)^i``."""
    v = _homogeneous_horner(cs, j, 1 << k)
    return (v > 0) - (v < 0)


def _lattice_midpoint(cs: list[int], a: int, b: int, k: int) -> tuple[int, int, int]:
    """``(j, e, s)``: the point j / 2^e near the midpoint of (a, b) / 2^k
    where the polynomial ``cs`` does not vanish, and its sign s there.

    The midpoint (a + b) / 2^(k+1) when it is no root; else the first
    non-root of x -+ delta, delta = (b - a) / 2^(k+6), (b - a) / 2^(k+7),
    ..., tried in that order.  Each is within (b - a) / 2^(k+6) of x, so
    strictly inside (a, b) / 2^k.
    """
    s = _lattice_sign(cs, a + b, k + 1)
    if s:
        return a + b, k + 1, s
    shift = 5
    while True:
        mid, e = (a + b) << shift, k + 1 + shift
        for j in (mid - (b - a), mid + (b - a)):
            s = _lattice_sign(cs, j, e)
            if s:
                return j, e, s
        shift += 1


def smallest_positive_root(p: Poly) -> IsolatedRoot:
    """Isolate the least root of p in (0, infinity) to ``DEFAULT_WIDTH``.

    Raises NoPositiveRootError when there is none.  The returned bracket has
    non-root rational endpoints, contains exactly one distinct root of p, and
    no root lies between 0 and its lower end.

    A depth-first search over the pieces of (0, H), H the Cauchy bound of
    the squarefree part ``sf``, lower half first, finds the least root.  A
    piece with Descartes bound V = 0 is dropped, and one with V >= 2 is
    split at ``_lattice_midpoint``, unless it is no wider than the width:
    then the exact ``count_roots`` stands in for V.  The first piece whose
    count is 1 holds the least root.  While it is wider than the width,
    the sign of ``sf`` at the split point m picks the half: ``sf`` has only
    simple roots, so (lo, m) holds the root exactly when sf(m) differs in
    sign from sf(lo), which is the sign of sf(0) since no root lies in
    (0, lo].

    The brackets are those of bisection by exact counts, which keeps the
    lower half while it holds a root until one root is left in a piece no
    wider than the width.  The search visits that bisection's intervals,
    split at the same points, in order; every other piece it visits lies
    to their left, holds no root and never counts 1.  On the chain, V = 1
    means one root, and the sign steps keep the halves a count would.
    V >= 2 leaves the count open, so a piece wider than the width is split
    as the bisection splits it; no wider, the exact count stops the search
    where the bisection stops.

    Every point is H j / 2^k on the lattice of H = h / g: an endpoint is
    the pair (j, k), a midpoint a sum and the width test one integer
    comparison.  sf(H j / 2^k) g^n has the sign of the homogeneous
    ``sum cs[i] j^i 2^(k (n - i))``, cs the ``_scaled_ints`` of sf on
    (0, H), cs[i] = sf_i h^i g^(n - i), and the non-root search near a root
    midpoint stays on the lattice.
    """
    if p.degree < 1:
        raise NoPositiveRootError("constant polynomial has no roots")
    # Positive roots are unaffected by stripping a power of z.
    val = p.valuation()
    if val > 0:
        p = Poly.from_ints(p.ints[val:], p.content)
        if p.degree < 1:
            raise NoPositiveRootError("no positive root (pure power of z)")
    sf = squarefree_part(p)
    # The Cauchy bound strictly dominates every root, so it is non-root.
    bound = cauchy_bound(sf)
    h, g = bound.numerator, bound.denominator
    cs = _scaled_ints(sf, Fraction(0), bound)
    # hi - lo > width as one comparison of (b - a) over_w against under_w << k.
    over_w = h * DEFAULT_WIDTH.denominator
    under_w = g * DEFAULT_WIDTH.numerator

    def point(j: int, k: int) -> Fraction:
        return Fraction(h * j, g << k)

    pieces = [(0, 1, 0)]
    while pieces:
        a, b, k = pieces.pop()
        lo, hi = point(a, k), point(b, k)
        v = descartes_bound(sf, lo, hi)
        if v > 1 and (b - a) * over_w <= under_w << k:
            v = count_roots(sf, lo, hi)
        if v == 1:
            break
        if v:
            j, e, _ = _lattice_midpoint(cs, a, b, k)
            pieces += [(j, b << (e - k), e), (a << (e - k), j, e)]
    else:
        raise NoPositiveRootError(f"no positive real root: {p}")
    # No root lies in (0, lo], so sf has on [0, lo] the sign it has at 0.
    positive_at_0 = cs[0] > 0
    while (b - a) * over_w > under_w << k:
        j, e, s = _lattice_midpoint(cs, a, b, k)
        a, b, k = a << (e - k), b << (e - k), e
        if (s > 0) != positive_at_0:
            b = j
        else:
            a = j
    lo, hi = point(a, k), point(b, k)
    mult = _multiplicity_in_bracket(p, lo, hi)
    return IsolatedRoot(lo, hi, p, mult)


def roots_equal(a: IsolatedRoot, b: IsolatedRoot) -> bool:
    """Exact equality of the two bracketed algebraic numbers.

    Decided via the gcd of the defining polynomials on the bracket
    intersection, never by numeric closeness.
    """
    lo = max(a.low, b.low)
    hi = min(a.high, b.high)
    if lo >= hi:
        return False
    g = poly_gcd(squarefree_part(a.defining), squarefree_part(b.defining))
    if g.degree < 1:
        return False
    # Endpoints of the intersection are bracket endpoints, hence non-roots
    # of their own defining polynomial, hence non-roots of the gcd.
    return count_roots(g, lo, hi) >= 1


def root_compare(a: IsolatedRoot, b: IsolatedRoot) -> int:
    """-1, 0, or 1 as a <, ==, > b (exact)."""
    if roots_equal(a, b):
        return 0
    while True:
        # Roots live strictly inside their brackets, so touching endpoints
        # still separate them once equality has been ruled out.
        if a.high <= b.low:
            return -1
        if b.high <= a.low:
            return 1
        a = a.refine(a.width / 4)
        b = b.refine(b.width / 4)
