"""Walk generating functions of a finite cell.

Everything here is exact: entries of (I - zT)^{-1} are rational functions
over Fraction coefficients, poles are isolated as root brackets, and the
analytic facts needed downstream (simple poles, pole ordering, expansion
of the transition function between its fixed points) are checked by Sturm
counts and rational-grid evaluation rather than floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Bracket,
    IsolatedRoot,
    NoPositiveRootError,
    Poly,
    RatFunc,
    count_roots,
    det_linear,
    minor,
    root_compare,
    roots_equal,
    smallest_positive_root,
)
from .cells import (
    CellError,
    CellGraph,
    CellReport,
    require_valid,
    transition_matrix,
)

Matrix = list[list[Fraction]]


class KernelError(CellError):
    """A walk-function invariant failed; the input cell is unusable."""


# -- resolvent entries -------------------------------------------------------


def _resolvent_matrix(t: Matrix) -> list[list[Poly]]:
    n = len(t)
    return [
        [Poly([1 if i == j else 0, -t[i][j]]) for j in range(n)]
        for i in range(n)
    ]


def resolvent_det(t: Matrix) -> Poly:
    """det(I - zT), the common denominator of every entry of (I - zT)^{-1}."""
    return det_linear(_resolvent_matrix(t))


def green_entry(t: Matrix, i: int, j: int, denom: Poly | None = None) -> RatFunc:
    """Entry [i, j] of (I - zT)^{-1} by the cofactor formula.

    The minor drops row j and column i; the transposition is what makes
    this the (i, j) entry of the inverse rather than the (j, i) one.
    ``denom`` is ``resolvent_det(t)``; a caller that needs several entries
    of one matrix passes it in, so that it is computed once.
    """
    m = _resolvent_matrix(t)
    if denom is None:
        denom = det_linear(m)
    numer = det_linear(minor(m, j, i))
    if (i + j) % 2:
        numer = -numer
    return RatFunc(numer, denom)


# -- the two modified step matrices ------------------------------------------


def build_pf(g: CellGraph) -> Matrix:
    """Step matrix whose walks may never enter a non-origin boundary vertex."""
    t = transition_matrix(g)
    for i in range(g.theta, g.n):
        for j in range(1, g.theta):
            t[i][j] = Fraction(0)
    return t


def build_pd(g: CellGraph) -> Matrix:
    """Step matrix with non-origin boundary vertices made absorbing."""
    t = transition_matrix(g)
    for i in range(1, g.theta):
        for j in range(g.theta, g.n):
            t[i][j] = Fraction(0)
    return t


# -- spectral data -----------------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Smallest positive pole of a walk generating function."""

    rho: IsolatedRoot
    pole_order: int
    residue_scale: Bracket | None

    def to_json(self) -> dict:
        r = self.rho
        return {
            "rho_low": str(r.low),
            "rho_high": str(r.high),
            "rho_approx": float(r),
            "pole_order": self.pole_order,
            "residue_scale": (
                None if self.residue_scale is None else self.residue_scale.to_json()
            ),
        }


def poly_on_bracket(p: Poly, b: Bracket) -> Bracket:
    """Interval image of a polynomial: Horner over bracket arithmetic."""
    acc = Bracket.point(Fraction(0))
    for c in reversed(p.coeffs):
        acc = acc * b + c
    return acc


def radius(func: RatFunc) -> SpectralData | None:
    """Smallest positive pole with order and leading expansion scale.

    None when the function has no positive pole (polynomials included),
    which callers report as an infinite radius.  The scale is None for a
    pole that is not simple.
    """
    den = func.den
    if den(Fraction(0)) == 0:
        raise ValueError("denominator vanishes at 0")
    try:
        rho = smallest_positive_root(den)
    except NoPositiveRootError:
        return None
    # The scale kappa with func ~ kappa (1 - z/rho)^{-order} near the pole.
    # For a simple pole kappa = -num(rho) / (rho den'(rho)); evaluate the
    # formula over a bracket tight enough that den' stays away from zero.
    # The refinement ends because den'(rho) != 0 at a simple root.
    kappa = None
    if rho.multiplicity == 1:
        dprime = den.derivative()
        while True:
            b = Bracket(rho.low, rho.high)
            dpb = poly_on_bracket(dprime, b)
            if not dpb.contains_zero():
                break
            rho = rho.refine(rho.width / 1024)
        kappa = -poly_on_bracket(func.num, b) / (b * dpb)
    return SpectralData(rho=rho, pole_order=rho.multiplicity, residue_scale=kappa)


# -- cell walk functions -----------------------------------------------------


@dataclass(frozen=True)
class CellFunctions:
    """Return function f, transition function d, first-return function r.

    ``det_f`` and ``det_d`` are det(I - zP_f) and det(I - zP_d), the
    denominators that f and d were built over.  ``report`` is the cell's
    validation report, which carries mu, bipartiteness, the path test and
    the clique partition for everything downstream.
    """

    cell: CellGraph
    report: CellReport
    f: RatFunc
    d: RatFunc
    r: RatFunc
    spectral_f: SpectralData
    spectral_d: SpectralData
    spectral_r: SpectralData | None
    det_f: Poly
    det_d: Poly


def cell_functions(g: CellGraph, report: CellReport | None = None) -> CellFunctions:
    """Compute f, d, r for a valid cell and verify their defining identities.

    f(z) generates returns to the origin that avoid the rest of the boundary;
    d(z) generates first hits of the rest of the boundary; r = 1 - 1/f
    generates first returns to the origin under the same avoidance rule.
    ``report`` is ``validate_cell(g)``; a caller that has validated the
    cell passes it in, so that validation runs once.
    """
    if report is None:
        report = require_valid(g)
    elif not report.valid:
        raise KernelError("cell_functions needs the report of a valid cell")
    pf = build_pf(g)
    pd = build_pd(g)
    det_f = resolvent_det(pf)
    det_d = resolvent_det(pd)
    f = green_entry(pf, 0, 0, det_f)
    d = RatFunc(Poly([0]))
    for j in range(1, g.theta):
        d = d + green_entry(pd, 0, j, det_d)
    r = 1 - 1 / f

    zero = Fraction(0)
    one = Fraction(1)
    if f(zero) != 1:
        raise KernelError("return function must start at 1")
    if d(zero) != 0 or d.derivative()(zero) != 0:
        raise KernelError(
            "transition function must vanish to second order at 0"
        )
    if d(one) != 1:
        raise KernelError("transition function must reach 1 at z = 1")
    if 1 / (1 - r) != f:
        raise KernelError("first-return identity f = 1/(1 - r) failed")

    sf = radius(f)
    sd = radius(d)
    if sf is None or sd is None:
        raise KernelError("f and d must have a positive pole")
    sr = radius(r)
    return CellFunctions(
        cell=g,
        report=report,
        f=f,
        d=d,
        r=r,
        spectral_f=sf,
        spectral_d=sd,
        spectral_r=sr,
        det_f=det_f,
        det_d=det_d,
    )


# -- property reports --------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class PropertyReport:
    items: tuple[CheckItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "items": [item.to_json() for item in self.items],
            "all_passed": self.all_passed,
        }


def _grid(lo: Fraction, hi: Fraction, points: int) -> list[Fraction]:
    step = (hi - lo) / (points + 1)
    return [lo + step * k for k in range(1, points + 1)]


def spectral_property_report(cf: CellFunctions, grid_points: int = 32) -> PropertyReport:
    """The five analytic facts the iteration theory rests on, checked exactly.

    (1) f and d share their smallest positive pole; (2) that pole is simple
    for both; (3) it lies strictly below the first positive pole of r;
    (4) between its fixed points 1 and rho, d expands: d(z) > z, d'(z) > 1,
    d''(z) > 0 on a rational grid; (5) f has no pole in (0, rho_f).
    Items 1-3 and 5 are exact; item 4 samples a grid of grid_points
    rationals, which certifies signs at those points only.
    """
    items = []

    same_pole = roots_equal(cf.spectral_f.rho, cf.spectral_d.rho)
    items.append(
        CheckItem(
            "shared_radius",
            same_pole,
            "smallest positive poles of f and d coincide"
            if same_pole
            else "f and d have different smallest positive poles",
        )
    )

    simple = cf.spectral_f.pole_order == 1 and cf.spectral_d.pole_order == 1
    items.append(
        CheckItem(
            "simple_poles",
            simple,
            f"pole orders f:{cf.spectral_f.pole_order} d:{cf.spectral_d.pole_order}",
        )
    )

    if cf.spectral_r is None:
        items.append(
            CheckItem(
                "radius_gap",
                True,
                "r is a polynomial (infinite radius), gap is automatic",
            )
        )
    else:
        gap = root_compare(cf.spectral_f.rho, cf.spectral_r.rho) < 0
        items.append(
            CheckItem(
                "radius_gap",
                gap,
                "rho_f < rho_r" if gap else "rho_f is not below rho_r",
            )
        )

    rho_d = cf.spectral_d.rho
    while rho_d.low <= 1:
        rho_d = rho_d.refine(rho_d.width / 16)
    dp = cf.d.derivative()
    dpp = dp.derivative()
    expanding = True
    for x in _grid(Fraction(1), rho_d.low, grid_points):
        if not (cf.d(x) > x and dp(x) > 1 and dpp(x) > 0):
            expanding = False
            break
    items.append(
        CheckItem(
            "expansion_between_fixed_points",
            expanding,
            f"d(z)>z, d'(z)>1, d''(z)>0 at {grid_points} rational points in (1, rho_d)"
            if expanding
            else "expansion inequality failed on the grid",
        )
    )

    den = cf.f.den
    below = count_roots(den, Fraction(0), cf.spectral_f.rho.low) == 0
    items.append(
        CheckItem(
            "first_pole",
            below,
            "Sturm count confirms no denominator root of f in (0, rho_f)"
            if below
            else "f has a pole below rho_f",
        )
    )
    return PropertyReport(tuple(items))
