"""Walk generating functions of a finite cell.

Everything here is exact.  The walk matrices P_f and P_d are the cell's
masked adjacency rows over its vertex degrees, all integers, and one
fraction-free elimination of each gives the entries of (I - zT)^{-1} that
f and d need as rational functions.  Poles are isolated as root
brackets, and the analytic facts needed downstream (simple poles, pole
ordering, expansion of the transition function between its fixed points)
are checked by root counts rather than floating point, by Descartes'
rule of signs: V <= 1 sign variations on an interval is an exact count,
since the roots there, with multiplicity, are at most V and of V's
parity, and V >= 2 bisects the interval until every piece has V <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Bracket,
    IsolatedRoot,
    NoPositiveRootError,
    Poly,
    RatFunc,
    count_roots,
    resolvent_row,
    root_compare,
    roots_equal,
    smallest_positive_root,
)
from .cells import (
    CellError,
    CellGraph,
    CellReport,
    adjacency_rows,
    require_valid,
)


class KernelError(CellError):
    """A walk-function invariant failed; the input cell is unusable."""


# -- the two modified step matrices ------------------------------------------


def build_pf(g: CellGraph) -> list[list[int]]:
    """Rows C of P_f = diag(degrees)^-1 C, whose walks may never enter a
    non-origin boundary vertex."""
    c = adjacency_rows(g)
    for i in range(g.theta, g.n):
        for j in range(1, g.theta):
            c[i][j] = 0
    return c


def build_pd(g: CellGraph) -> list[list[int]]:
    """Rows C of P_d = diag(degrees)^-1 C, with non-origin boundary vertices
    made absorbing."""
    c = adjacency_rows(g)
    for i in range(1, g.theta):
        for j in range(g.theta, g.n):
            c[i][j] = 0
    return c


# -- poles -------------------------------------------------------------------


def poly_on_bracket(p: Poly, b: Bracket) -> Bracket:
    """Interval image of a polynomial: Horner over bracket arithmetic."""
    acc = Bracket.point(Fraction(0))
    for c in reversed(p.coeffs):
        acc = acc * b + c
    return acc


def radius(func: RatFunc) -> IsolatedRoot | None:
    """Smallest positive pole of a rational function, with its order.

    None when the function has no positive pole (polynomials included),
    which callers report as an infinite radius.
    """
    if func.den(Fraction(0)) == 0:
        raise ValueError("denominator vanishes at 0")
    try:
        return smallest_positive_root(func.den)
    except NoPositiveRootError:
        return None


def residue_scale(func: RatFunc, rho: IsolatedRoot) -> tuple[IsolatedRoot, Bracket | None]:
    """func's pole rho, refined, and kappa with func ~ kappa (1 - z/rho)^-order.

    kappa is None for a pole that is not simple, and otherwise
    -num(rho) / (rho den'(rho)), evaluated over a bracket of rho refined
    until den' stays away from zero, which ends as den'(rho) != 0.
    """
    if rho.multiplicity != 1:
        return rho, None
    dprime = func.den.derivative()
    while True:
        dpb = poly_on_bracket(dprime, rho)
        if not dpb.contains_zero():
            break
        rho = rho.refine(rho.width / 1024)
    return rho, -poly_on_bracket(func.num, rho) / (rho * dpb)


# -- cell walk functions -----------------------------------------------------


@dataclass(frozen=True)
class CellFunctions:
    """Return function f, transition function d, first-return function r.

    ``rho_f`` and ``rho_d`` are the smallest positive poles of f and d.
    ``det_f`` and ``det_d`` are det(I - zP_f) and det(I - zP_d), the
    denominators that f and d were built over.  ``report`` is the cell's
    validation report, which carries mu, bipartiteness, the path test and
    the clique partition for everything downstream.  Construction checks,
    once for every consumer, that d has a double zero at the origin: one
    step cannot cross the cell, and green_series relies on it to end.
    """

    cell: CellGraph
    report: CellReport
    f: RatFunc
    d: RatFunc
    r: RatFunc
    rho_f: IsolatedRoot
    rho_d: IsolatedRoot
    det_f: Poly
    det_d: Poly

    def __post_init__(self):
        if self.d.den(0) == 0 or self.d.num.valuation() < 2:
            raise KernelError(
                "transition function must vanish to second order at 0"
            )

    @property
    def scale(self) -> int:
        """L, the lcm of the cell's degrees: f, d and r expand in z = L w.

        f(L w), d(L w) and r(L w) have integer denominators with constant
        term 1, so ``expand_scaled`` expands them without a division.  L P
        is an integer matrix for P = P_f, P_d or P_f', P_f without row and
        column 0, so det(I - w L P) lies in Z[w] with constant term 1.  The
        reduced denominator of f or d divides det(I - z P_f) or
        det(I - z P_d); that of r = 1 - 1/f is f's reduced numerator, which
        divides the origin's cofactor det(I - z P_f').  Divided by its value
        at 0, such a factor divides the determinant in Q[w]; by Gauss's
        lemma it is then a scalar multiple of an integer factor whose
        constant term divides 1, so it lies in Z[w] with constant term 1.
        """
        return math.lcm(*self.cell.degrees())


def cell_functions(g: CellGraph, report: CellReport | None = None) -> CellFunctions:
    """Compute f, d, r for a valid cell and verify their defining identities.

    f(z) generates returns to the origin that avoid the rest of the boundary;
    d(z) generates first hits of the rest of the boundary; r = 1 - 1/f
    generates first returns to the origin under the same avoidance rule.
    One ``resolvent_row`` per matrix gives det(I - zP) and row 0 of the
    adjugate: f is entry (0, 0) of I - zP_f over det_f, and d the sum of
    entries (0, j), 0 < j < theta, of I - zP_d over det_d, normalised once;
    CellFunctions checks d's double zero at 0.  When f and d keep one
    denominator after cancellation, its pole is isolated once, for f.
    f = 1 / (1 - r) holds by construction: with f = N / D in lowest terms,
    r = (N - D) / N, so 1 - r = D / N, and RatFunc's normal form makes
    1 / (1 - r) the same N / D as f.
    ``report`` is ``validate_cell(g)``; a caller that has validated the
    cell passes it in, so that validation runs once.
    """
    if report is None:
        report = require_valid(g)
    elif not report.valid:
        raise KernelError("cell_functions needs the report of a valid cell")
    degrees = g.degrees()
    det_f, (f_num,) = resolvent_row(degrees, build_pf(g), [0])
    det_d, d_nums = resolvent_row(degrees, build_pd(g), range(1, g.theta))
    f = RatFunc(f_num, det_f)
    d = RatFunc(sum(d_nums, Poly([0])), det_d)
    # 1 - 1/f, over f's coprime numerator and denominator.
    r = RatFunc(f.num - f.den, f.num)

    if f(0) != 1:
        raise KernelError("return function must start at 1")
    if d(1) != 1:
        raise KernelError("transition function must reach 1 at z = 1")

    rho_f = radius(f)
    rho_d = rho_f if d.den == f.den else radius(d)
    if rho_f is None or rho_d is None:
        raise KernelError("f and d must have a positive pole")
    return CellFunctions(
        cell=g,
        report=report,
        f=f,
        d=d,
        r=r,
        rho_f=rho_f,
        rho_d=rho_d,
        det_f=det_f,
        det_d=det_d,
    )


# -- property reports --------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str


def check(name: str, passed: bool, detail: str, failure: str = "") -> CheckItem:
    """A check item; ``failure``, when given, is the detail of a failed one."""
    return CheckItem(name, passed, failure if failure and not passed else detail)


@dataclass(frozen=True)
class PropertyReport:
    items: tuple[CheckItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)


def expansion_polys(d: RatFunc) -> tuple[tuple[Poly, int], ...]:
    """``(q1, s), (q2, 1), (q3, s)``: d expands on (1, rho) exactly when no
    q_i has a root there and each has its sign on that interval.

    Write d = N/D and W = N'D - ND', so d' = W/D^2 and
    d'' = ((N''D - ND'')D - 2D'W)/D^3.  The pole rho is the least positive
    root of D, so D keeps on (1, rho) its sign s at 1.  With z - 1 > 0 there:
      d - z   = (z - 1) q1 / D, q1 = (N - zD) / (z - 1), exact as d(1) = 1;
      d' - 1  = q2 / D^2,       q2 = W - D^2;
      d''     = q3 / D^3,       q3 = (N''D - ND'')D - 2D'W.
    """
    n, den = d.num, d.den
    z = Poly([0, 1])
    q1 = (n - z * den) // Poly([-1, 1])
    dn, dd = n.derivative(), den.derivative()
    w = dn * den - n * dd
    q2 = w - den * den
    q3 = (dn.derivative() * den - n * dd.derivative()) * den - dd * w * 2
    s = den.sign_at(1)
    return (q1, s), (q2, 1), (q3, s)


def _expands(d: RatFunc, rho: IsolatedRoot) -> bool:
    """Whether d(z) > z, d'(z) > 1 and d''(z) > 0 on (1, rho), exactly.

    The three inequalities say that the ``expansion_polys`` q1, q2, q3
    have the signs s, 1, s on (1, rho), that is, no root there and that
    sign at one point.  The bracket (low, high) of rho is refined until
    low > 1 and no q_i vanishes at low or high or has a root between them;
    then a root count on (1, low) and the sign at low decide each q_i on
    (1, rho).  The counts are Descartes counts: zero sign variations prove
    that there is no root, and one proves exactly one, so only two or more
    bisect the interval.  The refinement ends at a simple pole: q1, q2, q3
    equal N/(rho - 1), -ND' and 2ND'^2 at rho, and none is 0.  A pole that
    is not simple and a q_i that vanishes at 1 fail the item.
    """
    if rho.multiplicity != 1:
        return False
    qs = expansion_polys(d)
    if any(q.sign_at(1) == 0 for q, _ in qs):
        return False
    while rho.low <= 1 or any(
        q.sign_at(rho.low) == 0
        or q.sign_at(rho.high) == 0
        or count_roots(q, rho.low, rho.high)
        for q, _ in qs
    ):
        rho = rho.refine(rho.width / 16)
    return all(
        count_roots(q, Fraction(1), rho.low) == 0 and q.sign_at(rho.low) == sign
        for q, sign in qs
    )


def spectral_property_report(cf: CellFunctions) -> PropertyReport:
    """The five analytic facts the iteration theory rests on, all exact.

    (1) f and d share their smallest positive pole; (2) that pole is simple
    for both; (3) it lies strictly below the first positive pole of r;
    (4) between its fixed points 1 and rho, d expands: d(z) > z, d'(z) > 1,
    d''(z) > 0 on (1, rho_d); (5) f has no pole in (0, rho_f).  Each item
    is decided by root brackets and root counts on polynomials.
    """
    rho_f, rho_d = cf.rho_f, cf.rho_d
    rho_r = radius(cf.r)
    if rho_r is None:
        gap, below = "r is a polynomial (infinite radius), gap is automatic", True
    else:
        gap, below = "rho_f < rho_r", root_compare(rho_f, rho_r) < 0
    simple = rho_f.multiplicity == 1 and rho_d.multiplicity == 1
    orders = f"pole orders f:{rho_f.multiplicity} d:{rho_d.multiplicity}"
    return PropertyReport((
        check(
            "shared_radius", roots_equal(rho_f, rho_d),
            "smallest positive poles of f and d coincide",
            "f and d have different smallest positive poles",
        ),
        check("simple_poles", simple, orders),
        check("radius_gap", below, gap, "rho_f is not below rho_r"),
        check(
            "expansion_between_fixed_points", _expands(cf.d, rho_d),
            "d(z)>z, d'(z)>1, d''(z)>0 on (1, rho_d), certified by Descartes counts",
            "expansion inequality not certified on (1, rho_d)",
        ),
        check(
            "first_pole", count_roots(cf.f.den, Fraction(0), rho_f.low) == 0,
            "Descartes count confirms no denominator root of f in (0, rho_f)",
            "f has a pole below rho_f",
        ),
    ))
