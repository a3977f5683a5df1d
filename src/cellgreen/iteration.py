"""Green's function of the infinite self-similar graph via iteration.

The return series G of the limit graph solves G(z) = f(z) G(d(z)), so its
truncation to any order follows from a shorter truncation composed with d.
This module expands it exactly by that nesting, extracts the growth invariants
(branching count mu, time scaling tau, return scaling alpha, exponent eta),
and checks the hypotheses under which the iteration forces the dichotomy
used by the classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Bracket, IsolatedRoot, Poly, RatFunc, ln_bracket
from .algebra.poly import schoolbook
from .algebra.series import (
    expand_scaled,
    int_product,
    pack_slots,
    scaled_fractions,
    unpack_slots,
)
from .greenkernel import CellFunctions, KernelError, PropertyReport, check


@dataclass(frozen=True)
class GreenSeries:
    """Truncated return series of the limit graph, in integers.

    ints holds b_n = scale^n g_n for n = 0 .. order, the coefficients of
    G(scale w) in w = z / scale, scale the lcm of the cell's degrees;
    f_ints and d_ints are those of f(scale w) and d(scale w), which G was
    solved from.  factors_used is the nesting depth of green_series (at
    least 1), which equals the number of factors f(d_k(z)) of
    G = prod_k f(d_k(z)) that reach z^order, where d_k is the k-th iterate
    of d and k runs from 0 to factors_used - 1.  The coefficients g_n in z
    are made as Fractions only where they are read.
    """

    ints: tuple[int, ...]
    factors_used: int
    order: int
    f_ints: tuple[int, ...]
    d_ints: tuple[int, ...]
    scale: int

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} is beyond the order {self.order}")
        return Fraction(self.ints[k], self.scale**k)

    def coefficients(self) -> tuple[Fraction, ...]:
        return scaled_fractions(self.ints, 1, self.scale)

    def truncate(self, order: int) -> GreenSeries:
        """The same expansion known only through z^order."""
        if order > self.order:
            raise ValueError("cannot extend knowledge by truncation")
        n = order + 1
        return GreenSeries(
            self.ints[:n], self.factors_used, order,
            self.f_ints[:n], self.d_ints[:n], self.scale,
        )


def green_series(cf: CellFunctions, order: int) -> GreenSeries:
    """Nested expansion of G with all coefficients through z^order exact.

    With v the valuation of d, G mod z^m depends only on G mod z^m' for
    m' = (m - 1) // v + 1, since (z^m')(d) vanishes to order m' v >= m:

        G mod z^m = f (G mod z^m')(d)  mod z^m.

    Starting from G mod z^1 = 1 (f(0) = 1 for a return function), each
    level composes a short series with d; the iterates of d are never
    built.  The number of levels with m > 1, the nesting depth, equals the
    number of factors f(d_k(z)) of the product G = prod_k f(d_k(z)) that
    reach z^order.  CellFunctions ensures v >= 2, so it is logarithmic.

    Every level runs in nonnegative integers, in the variable w = z / L
    with L = cf.scale, the lcm of the cell's vertex degrees:

    * f(L w) = F(w) and d(L w) = D(w) are integer series.  Their
      denominators lie in Z[w] with constant term 1 (CellFunctions.scale),
      so ``expand_scaled`` expands them without a division; coefficient n
      of f or d sums, over walks of n steps, products of n factors 1 / deg,
      so L^n times it is an integer.
    * b_n = L^n g_n is an integer.  g_n is the probability that the walk
      on the limit graph is back at the origin after n steps, a sum over
      closed walks of products of 1 / deg.  ``validate_cell`` holds every
      boundary vertex at degree theta - 1, so a vertex keeps its cell
      degree when copies are glued at it, and every degree of the limit
      graph is a cell degree, which divides L.

    With K = m' - 1, L^K G(d) = sum_(k <= K) b_k L^(K-k) D^k, and Horner
    steps acc = acc D + b_k L^(K-k), each only mod w^(m - k v), give it
    mod w^m; then b_n is coefficient n of F acc divided, exactly (checked),
    by L^K.  The accumulator is one big integer of slots (Kronecker
    substitution), never unpacked between steps.  Every coefficient is
    nonnegative, so no slot borrows, and none overflows a slot holding
    (K + 1) L^(K+m): g_k <= 1, and coefficient j of d^k is at most
    d(1)^k = 1, so coefficient j of any accumulator is at most
    (K + 1) L^(K+j), and of F acc at most L^(K+j).  A cell whose F and
    D^2 have no odd terms through w^order (a bipartite cell: D is even or
    odd) has an even G: if g_k = 0 for odd k < n, then G(D) mod w^(n+1),
    a sum of g_k (D^2)^(k/2), is even, and so is F G(D), whose coefficient
    n is g_n.  With G(w) = H(w^2) and D^2 = S(w^2), H(u) = F_even(u)
    H(S(u)) is solved by the same levels in u = w^2 with L^2 for L; S has
    valuation v in u, and the bound above holds for it, as d^2(1) = 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    count = order + 1
    scale = cf.scale
    f_ints, f_den = expand_scaled(cf.f, scale, count)
    d_ints, d_den = expand_scaled(cf.d, scale, count)
    if f_den != 1 or d_den != 1:
        raise ArithmeticError(f"f and d are not integer series in z/{scale}")
    v = cf.d.num.valuation()
    square = None if any(f_ints[1::2]) else int_product(d_ints, d_ints, count)
    if square is None or any(square[1::2]):
        b = _solve_levels(f_ints, d_ints, scale, v)
    else:
        b = [0] * count
        b[::2] = _solve_levels(f_ints[::2], square[::2], scale * scale, v)
    return GreenSeries(
        tuple(b),
        max(len(_level_sizes(count, v)) - 1, 1),
        order,
        tuple(f_ints),
        tuple(d_ints),
        scale,
    )


def _level_sizes(count: int, v: int) -> list[int]:
    """count, then each level's m' = (m - 1) // v + 1, down to 1."""
    sizes = [count]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] - 1) // v + 1)
    return sizes


def _solve_levels(f: list[int], d: list[int], scale: int, v: int) -> list[int]:
    """b_n = scale^n g_n for n < len(f), given f and d in w (green_series)."""
    b = [1]
    for m in reversed(_level_sizes(len(f), v)[:-1]):
        b = _level(f, d, scale, v, b, m)
    return b


def _level(
    f: list[int], d: list[int], scale: int, v: int, b: list[int], m: int
) -> list[int]:
    """b_0 .. b_(m-1) from b_0 .. b_K, K = (m - 1) // v (green_series)."""
    k_top = len(b) - 1
    size = (((k_top + 1) * scale ** (k_top + m)).bit_length() + 7) // 8
    bits = 8 * size
    powers = [1]
    for _ in range(k_top):
        powers.append(powers[-1] * scale)
    # D / w^v: acc D mod w^n is (acc (D / w^v) mod w^(n-v)) shifted by v slots.
    inner = pack_slots(d[v:m], size)
    acc = b[k_top]
    for k in range(k_top - 1, -1, -1):
        mask = (1 << bits * (m - (k + 1) * v)) - 1
        acc = (acc * (inner & mask) & mask) << bits * v
        acc += b[k] * powers[k_top - k]
    out = []
    for x in unpack_slots(pack_slots(f[:m], size) * acc, size, m):
        q, rem = divmod(x, powers[k_top])
        if rem:
            raise ArithmeticError("a coefficient of L^n G is not an integer")
        out.append(q)
    return out


def functional_residual(gs: GreenSeries) -> list[int]:
    """The integers L^K B - F sum_(k <= K) b_k L^(K-k) D^k mod w^(order+1).

    Here B, F and D are gs.ints, gs.f_ints and gs.d_ints, the series
    G(L w), f(L w) and d(L w) in w = z / L for L = gs.scale, and K is
    order // v, v the valuation of D.  The list is zero exactly when
    G - f (G over d) vanishes through z^order.  That residual at z = L w
    is B - F G(D), and z = L w is invertible, so its coefficients in z
    vanish through z^order when those in w do through w^order; they do
    when L^K times them do, as L^K != 0; and L^K G(D) is
    sum_k b_k L^(K-k) D^k, whose terms with k > K vanish mod w^(order+1),
    since D^k starts at w^(k v) and (K + 1) v > order.  The products are
    schoolbook, over the forward powers D^0, D^1, .. D^K, and share no
    code with the levels of green_series.

    A zero residual through z^order with G(0) = 1 fixes G through z^order:
    d vanishes to order at least 2, so coefficient n of f (G over d)
    involves only g_0 .. g_(n // 2), and each g_n with n >= 1 follows from
    earlier ones.  G(0) must be pinned apart, since the equation is linear:
    2 G has a zero residual too.
    """
    b, d, scale = gs.ints, gs.d_ints, gs.scale
    count = gs.order + 1
    v = next((i for i, x in enumerate(d) if x), count)
    top = gs.order // v
    inner = [0] * count
    power = [1] + [0] * gs.order
    for k in range(top + 1):
        c = b[k] * scale ** (top - k)
        for j in range(k * v, count):
            inner[j] += c * power[j]
        if k < top:
            power = schoolbook(power, d, count)
    lead = scale**top
    return [lead * x - y for x, y in zip(b, schoolbook(gs.f_ints, inner, count))]


# -- invariants ----------------------------------------------------------------


@dataclass(frozen=True)
class CellInvariants:
    theta: int
    mu: int
    tau: Fraction
    alpha: Fraction
    eta: Bracket
    eta_alt: Bracket
    rho_f: IsolatedRoot
    rho_d: IsolatedRoot
    bipartite: bool


def invariants(cf: CellFunctions) -> CellInvariants:
    """Exact growth invariants of the cell of cf.

    tau = d'(1) is the expected crossing-time scale, alpha = f(1) the
    return-mass scale, mu the clique count, and eta = log(mu)/log(tau) - 1
    the return-probability exponent, carried as a bracket so order
    comparisons stay decidable.  tau = mu * alpha must hold exactly; it
    ties the three scales together and any violation means the inputs do
    not describe a self-similar random walk.
    """
    mu = cf.report.mu
    # d'(1) by the quotient rule; d(1) = 1, so D(1) != 0.
    n, den = cf.d.num, cf.d.den
    tau = (n.derivative()(1) * den(1) - n(1) * den.derivative()(1)) / den(1) ** 2
    alpha = cf.f(Fraction(1))
    if tau <= 1:
        raise KernelError("time scaling tau must exceed 1")
    if alpha <= 1:
        raise KernelError("return scaling alpha must exceed 1")
    if tau != mu * alpha:
        raise KernelError(
            f"scaling identity tau = mu*alpha failed: {tau} != {mu}*{alpha}"
        )
    ln_tau = ln_bracket(tau)
    eta = ln_bracket(mu) / ln_tau - 1
    eta_alt = -ln_bracket(alpha) / ln_tau
    if not eta.overlaps(eta_alt):
        raise KernelError("the two eta brackets are disjoint (internal error)")
    return CellInvariants(
        theta=cf.cell.theta,
        mu=mu,
        tau=tau,
        alpha=alpha,
        eta=eta,
        eta_alt=eta_alt,
        rho_f=cf.rho_f,
        rho_d=cf.rho_d,
        bipartite=cf.report.bipartite,
    )


# -- dichotomy hypotheses --------------------------------------------------------


def iteration_hypotheses(b: RatFunc) -> PropertyReport:
    """Hypotheses on an inner function b that force the series dichotomy.

    Checks b(0) = 0, b'(0) = 0, and that no iterate of b is the identity.
    The last is certified by the vanishing order: when b has a double zero
    at 0, the k-th iterate vanishes to order at least 2^k, so no iterate
    can equal z.  A candidate with b'(0) a root of unity (say b(z) = z)
    fails here and is rejected.
    """
    at0 = b.den(0) != 0 and b.num(0) == 0
    # With b(0) = 0 and den(0) != 0, b'(0) = num_1 / den(0).
    flat = at0 and b.num.coefficient(1) == 0
    no_identity = at0 and b.num.valuation() >= 2
    items = (
        check("fixed_origin", at0, "b(0) = 0", "b does not fix the origin"),
        check("zero_multiplier", flat, "b'(0) = 0", "b'(0) is nonzero"),
        check(
            "no_iterate_is_identity",
            no_identity,
            "vanishing order doubles under iteration, so no iterate is z",
            "cannot rule out an iterate equal to the identity",
        ),
    )
    return PropertyReport(items)


# -- singular prefactor probe ------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    z: Fraction
    partial_sum: Fraction
    tail_bound: Fraction
    scaled: float


PROBE_TAIL_TOL = Fraction(1, 10**6)


def probe_tail_bounds(points: list[Fraction], order: int) -> list[Fraction]:
    """Truncation error bound z^(order+1)/(1-z) of each probe point.

    Coefficients of G are probabilities, so this bounds what the terms
    beyond z^order add at z.  Needs only the points and the order, so a
    caller can reject a point before it builds the series: a point outside
    (0, 1) raises ValueError, and one whose bound exceeds PROBE_TAIL_TOL raises
    KernelError.
    """
    tails = []
    for z in points:
        if not 0 < z < 1:
            raise ValueError("probe points must lie strictly inside (0, 1)")
        tail = z ** (order + 1) / (1 - z)
        if tail > PROBE_TAIL_TOL:
            raise KernelError(
                f"point {z} too close to 1 for order {order}: "
                f"tail bound {float(tail):.3g} exceeds {float(PROBE_TAIL_TOL):.3g}"
            )
        tails.append(tail)
    return tails


def singular_prefactor_probe(
    gs: GreenSeries,
    inv: CellInvariants,
    points: list[Fraction],
) -> list[ProbeRow]:
    """Diagnostic table of G(z) (1-z)^(-eta) at rational points in (0, 1).

    Points are checked with probe_tail_bounds at the series' order.  The
    scaled column uses the eta bracket midpoint and float exponentiation:
    this is a boundedness probe, not a verified quantity.
    """
    tails = probe_tail_bounds(points, gs.order)
    # sum g_n z^n = sum b_n (z / scale)^n, one integer Horner per point.
    partial_sum = Poly.from_ints(gs.ints)
    rows = []
    eta_mid = inv.eta.midpoint()
    for z, tail in zip(points, tails):
        partial = partial_sum(z / gs.scale)
        scaled = float(partial) * math.exp(
            -float(eta_mid) * math.log(1 - float(z))
        )
        rows.append(
            ProbeRow(z=z, partial_sum=partial, tail_bound=tail, scaled=scaled)
        )
    return rows
