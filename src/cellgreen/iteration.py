"""Green's function of the infinite self-similar graph via iteration.

The return series G of the limit graph solves G(z) = f(z) G(d(z)), so its
truncation is a finite product of f composed with iterates of d.  This
module expands that product exactly, extracts the growth invariants
(branching count mu, time scaling tau, return scaling alpha, exponent eta),
and checks the hypotheses under which the iteration forces the dichotomy
used by the classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Bracket,
    IsolatedRoot,
    PowerSeries,
    RatFunc,
    log_ratio,
    series_from_ratfunc,
)
from .cells import CellGraph
from .greenkernel import (
    CellFunctions,
    CheckItem,
    KernelError,
    PropertyReport,
    cell_functions,
)


@dataclass(frozen=True)
class GreenSeries:
    """Truncated return series of the limit graph.

    series holds coefficients of z^0 .. z^order inclusive; factors_used is
    the number of f(d_k(z)) factors multiplied, where d_k is the k-th
    iterate of d and k runs from 0 to factors_used - 1.
    """

    series: PowerSeries
    factors_used: int
    order: int

    def coefficient(self, k: int) -> Fraction:
        return self.series.coefficient(k)

    def coefficients(self) -> tuple[Fraction, ...]:
        return self.series.coeffs[: self.order + 1]

    def truncate(self, order: int) -> GreenSeries:
        """The same expansion known only through z^order."""
        return GreenSeries(self.series.truncate(order + 1), self.factors_used, order)


def _require_flat_start(d: RatFunc):
    # d must vanish to second order at 0: one step cannot cross the cell.
    if d.den(Fraction(0)) == 0 or d.num.valuation() < 2:
        raise KernelError(
            "transition function must have a double zero at the origin"
        )


def green_series(cf: CellFunctions, order: int) -> GreenSeries:
    """Product expansion of G with all coefficients through z^order exact.

    Factors f(d_k(z)) with the k-th iterate of d vanishing beyond z^order
    contribute nothing below the truncation and are dropped; since each
    composition at least doubles the vanishing order, the factor count
    stays logarithmic in order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    _require_flat_start(cf.d)
    count = order + 1
    f_ser = series_from_ratfunc(cf.f, count)
    d_ser = series_from_ratfunc(cf.d, count)
    product = f_ser
    factors = 1
    inner = d_ser
    while inner.valuation() <= order:
        product = product * f_ser.compose(inner)
        factors += 1
        inner = d_ser.compose(inner)
    return GreenSeries(series=product, factors_used=factors, order=order)


def green_series_recursion(cf: CellFunctions, order: int) -> PowerSeries:
    """Coefficients of G solved order-by-order from G = f (G over d).

    Independent of the product route: coefficient n of the right side only
    involves earlier coefficients of G because d starts at z^2.  Quadratic
    in order, intended as a cross-check at small truncations.
    """
    _require_flat_start(cf.d)
    count = order + 1
    f_ser = series_from_ratfunc(cf.f, count)
    d_ser = series_from_ratfunc(cf.d, count)
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        partial = PowerSeries(coeffs, count)
        rhs = f_ser * partial.compose(d_ser)
        coeffs[n] = rhs.coefficient(n)
    return PowerSeries(coeffs, count)


def functional_residual(cf: CellFunctions, gs: GreenSeries) -> PowerSeries:
    """G - f (G over d) truncated at gs.order; exactly zero when G is right."""
    count = gs.order + 1
    f_ser = series_from_ratfunc(cf.f, count)
    d_ser = series_from_ratfunc(cf.d, count)
    return gs.series - f_ser * gs.series.compose(d_ser)


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

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "mu": self.mu,
            "tau": str(self.tau),
            "alpha": str(self.alpha),
            "eta": self.eta.to_json(),
            "eta_alt": self.eta_alt.to_json(),
            "rho_f": {
                "low": str(self.rho_f.low),
                "high": str(self.rho_f.high),
                "approx": float(self.rho_f),
            },
            "rho_d": {
                "low": str(self.rho_d.low),
                "high": str(self.rho_d.high),
                "approx": float(self.rho_d),
            },
            "bipartite": self.bipartite,
        }


def invariants(g: CellGraph, cf: CellFunctions | None = None) -> CellInvariants:
    """Exact growth invariants of the cell.

    tau = d'(1) is the expected crossing-time scale, alpha = f(1) the
    return-mass scale, mu the clique count, and eta = log(mu)/log(tau) - 1
    the return-probability exponent, carried as a bracket so order
    comparisons stay decidable.  tau = mu * alpha must hold exactly; it
    ties the three scales together and any violation means the inputs do
    not describe a self-similar random walk.
    """
    if cf is None:
        cf = cell_functions(g)
    mu = cf.report.mu
    tau = cf.d.derivative()(Fraction(1))
    alpha = cf.f(Fraction(1))
    if tau <= 1:
        raise KernelError("time scaling tau must exceed 1")
    if alpha <= 1:
        raise KernelError("return scaling alpha must exceed 1")
    if tau != mu * alpha:
        raise KernelError(
            f"scaling identity tau = mu*alpha failed: {tau} != {mu}*{alpha}"
        )
    eta = log_ratio(mu, tau) - 1
    eta_alt = -log_ratio(alpha, tau)
    if not eta.overlaps(eta_alt):
        raise KernelError("the two eta brackets are disjoint (internal error)")
    return CellInvariants(
        theta=g.theta,
        mu=mu,
        tau=tau,
        alpha=alpha,
        eta=eta,
        eta_alt=eta_alt,
        rho_f=cf.spectral_f.rho,
        rho_d=cf.spectral_d.rho,
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
    zero = Fraction(0)
    items = []
    at0 = b.den(zero) != 0 and b.num(zero) == 0
    items.append(
        CheckItem(
            "fixed_origin",
            at0,
            "b(0) = 0" if at0 else "b does not fix the origin",
        )
    )
    flat = at0 and b.derivative()(zero) == 0
    items.append(
        CheckItem(
            "zero_multiplier",
            flat,
            "b'(0) = 0" if flat else "b'(0) is nonzero",
        )
    )
    val = b.num.valuation() if b.den(zero) != 0 else -1
    no_identity = at0 and val >= 2
    items.append(
        CheckItem(
            "no_iterate_is_identity",
            no_identity,
            "vanishing order doubles under iteration, so no iterate is z"
            if no_identity
            else "cannot rule out an iterate equal to the identity",
        )
    )
    return PropertyReport(tuple(items))


def transcendence_hypotheses(cf: CellFunctions) -> PropertyReport:
    return iteration_hypotheses(cf.d)


# -- singular prefactor probe ------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    z: Fraction
    partial_sum: Fraction
    tail_bound: Fraction
    scaled: float

    def to_json(self) -> dict:
        return {
            "z": str(self.z),
            "partial_sum": str(self.partial_sum),
            "partial_sum_approx": float(self.partial_sum),
            "tail_bound": float(self.tail_bound),
            "scaled": self.scaled,
        }


PROBE_TAIL_TOL = Fraction(1, 10**6)


def probe_tail_bounds(
    points: list[Fraction],
    order: int,
    tail_tol: Fraction = PROBE_TAIL_TOL,
) -> list[Fraction]:
    """Truncation error bound z^(order+1)/(1-z) of each probe point.

    Coefficients of G are probabilities, so this bounds what the terms
    beyond z^order add at z.  Needs only the points and the order, so a
    caller can reject a point before it builds the series: a point outside
    (0, 1) raises ValueError, and one whose bound exceeds tail_tol raises
    KernelError.
    """
    tails = []
    for z in points:
        if not 0 < z < 1:
            raise ValueError("probe points must lie strictly inside (0, 1)")
        tail = z ** (order + 1) / (1 - z)
        if tail > tail_tol:
            raise KernelError(
                f"point {z} too close to 1 for order {order}: "
                f"tail bound {float(tail):.3g} exceeds {float(tail_tol):.3g}"
            )
        tails.append(tail)
    return tails


def singular_prefactor_probe(
    gs: GreenSeries,
    inv: CellInvariants,
    points: list[Fraction],
    tail_tol: Fraction = PROBE_TAIL_TOL,
) -> list[ProbeRow]:
    """Diagnostic table of G(z) (1-z)^(-eta) at rational points in (0, 1).

    Points are checked with probe_tail_bounds at the series' order.  The
    scaled column uses the eta bracket midpoint and float exponentiation:
    this is a boundedness probe, not a verified quantity.
    """
    tails = probe_tail_bounds(points, gs.order, tail_tol)
    rows = []
    eta_mid = inv.eta.midpoint()
    for z, tail in zip(points, tails):
        partial = Fraction(0)
        for c in reversed(gs.series.coeffs[: gs.order + 1]):
            partial = partial * z + c
        scaled = float(partial) * math.exp(
            -float(eta_mid) * math.log(1 - float(z))
        )
        rows.append(
            ProbeRow(z=z, partial_sum=partial, tail_bound=tail, scaled=scaled)
        )
    return rows
