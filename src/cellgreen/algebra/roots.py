"""Exact real root isolation for rational polynomials.

Roots are carried as ``IsolatedRoot`` brackets: a rational interval
[low, high] whose interior contains exactly one distinct real root of the
defining polynomial, with endpoints that are never roots themselves.  All
decisions (counting, comparison, equality) are made exactly with Sturm
sequences and polynomial gcds; floating point appears only in diagnostics.

Sign tests read ``Poly.sign_at``, the sign of an integer Horner, and build
no ``Fraction``; Sturm chains are built on ``Poly.ints`` and are primitive
integer polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .brackets import Bracket
from .poly import Poly, poly_gcd, prs_step, squarefree_part

DEFAULT_WIDTH = Fraction(1, 2**30)


class NoPositiveRootError(ValueError):
    """The polynomial has no root in (0, infinity)."""


@lru_cache(maxsize=256)
def sturm_chain(p: Poly) -> tuple[Poly, ...]:
    """Sturm sequence of p: p, p', then minus each remainder (``prs_step``).

    Each member is its primitive part ``ints``, a positive rational
    multiple, which changes no sign.
    """
    chain = [p.ints]
    d = p.derivative().ints
    if d:
        chain.append(d)
        while True:
            rem = prs_step(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return tuple(map(Poly.from_ints, chain))


def _sign_variations(chain: tuple[Poly, ...], x: Fraction) -> int:
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the open interval (lo, hi).

    Endpoints must not be roots; with that precondition the half-open Sturm
    count over (lo, hi] equals the open count.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if lo >= hi:
        return 0
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise ValueError("interval endpoint is a root")
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def cauchy_bound(p: Poly) -> Fraction:
    """Strict upper bound on the absolute value of every root."""
    if p.degree < 0:
        raise ValueError("zero polynomial")
    # The content cancels from the ratio.
    return 1 + Fraction(max(map(abs, p.ints[:-1]), default=0), abs(p.ints[-1]))


def _nonroot_near(p: Poly, x: Fraction, step: Fraction) -> Fraction:
    """A point close to x (within |step|) where p does not vanish."""
    if p.sign_at(x):
        return x
    delta = step
    while True:
        for cand in (x - delta, x + delta):
            if p.sign_at(cand):
                return cand
        delta = delta / 2


@dataclass(frozen=True)
class IsolatedRoot(Bracket):
    """One real algebraic number: the unique root of ``defining`` in (low, high)."""

    defining: Poly
    multiplicity: int = 1

    def refine(self, width: Fraction = DEFAULT_WIDTH) -> IsolatedRoot:
        """Shrink the bracket below the requested width by exact bisection."""
        p = self.defining
        lo, hi = self.low, self.high
        while hi - lo > width:
            m = (lo + hi) / 2
            if p.sign_at(m) == 0:
                # The bracket's unique root is exactly m; any strict
                # sub-interval around m has non-root endpoints.
                delta = min(hi - m, m - lo, width) / 4
                return IsolatedRoot(m - delta, m + delta, p, self.multiplicity)
            if count_roots(p, lo, m) >= 1:
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


def smallest_positive_root(
    p: Poly, width: Fraction = DEFAULT_WIDTH
) -> IsolatedRoot:
    """Isolate the least root of p in (0, infinity).

    Raises NoPositiveRootError when there is none.  The returned bracket has
    non-root rational endpoints, contains exactly one distinct root of p, and
    no root lies between 0 and its lower end.

    Bisection keeps the lower half of (lo, hi) whenever it holds a root of
    the squarefree part ``sf``.  While (lo, hi) holds more than one root, a
    Sturm count decides that.  Once it holds exactly one, the sign of ``sf``
    at the midpoint m decides it: ``sf`` has only simple roots, so it
    changes sign at each one, and (lo, m) holds the root exactly when sf(m)
    differs in sign from sf(lo), which is the sign of sf(0) since no root
    lies in (0, lo].  Each step keeps the half that a Sturm count would
    keep, so the brackets are those of Sturm-only bisection.
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
    hi = cauchy_bound(sf)
    while sf.sign_at(hi) == 0:
        hi += 1
    lo = Fraction(0)
    inside = count_roots(sf, lo, hi)
    if inside == 0:
        raise NoPositiveRootError(f"no positive real root: {p}")
    # Invariant: no root in (0, lo] and `inside` roots in (lo, hi); lo and
    # hi are non-roots.  So sf has on [0, lo] the sign it has at 0.
    positive_at_0 = sf.sign_at(lo) > 0
    while inside > 1 or hi - lo > width:
        # Within (hi - lo) / 64 of the midpoint, so inside (lo, hi).
        m = _nonroot_near(sf, (lo + hi) / 2, (hi - lo) / 64)
        if inside > 1:
            below = count_roots(sf, lo, m)
            if below:
                inside = below
        else:
            below = (sf.sign_at(m) > 0) != positive_at_0
        if below:
            hi = m
        else:
            lo = m
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
