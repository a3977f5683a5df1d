"""Exact algebra layer: polynomials, rational functions, series, roots."""

from fractions import Fraction
import hashlib
import math

import pytest
from hypothesis import example, given, strategies as st

from cellgreen.algebra import (
    Bracket,
    NoPositiveRootError,
    PoleError,
    Poly,
    RatFunc,
    ZeroDenominatorError,
    count_roots,
    format_poly,
    ln_bracket,
    poly_gcd,
    roots_equal,
    series_from_ratfunc,
    smallest_positive_root,
    squarefree_part,
    sturm_chain,
)
from cellgreen.algebra.matrix import (
    _adjugate_row,
    _exact_div,
    resolvent_row,
    solve_linear,
)
from cellgreen.algebra.roots import (
    DEFAULT_WIDTH,
    IsolatedRoot,
    _multiplicity_in_bracket,
    _nonroot_near,
    cauchy_bound,
)
from cellgreen.algebra.series import expand_scaled, int_product, schoolbook
from cellgreen.greenkernel import cell_functions
from cellgreen.iteration import green_series
from cellgreen.registry import builtin_cell
from routes import (
    PowerSeries,
    det_bareiss,
    det_linear,
    log_ratio,
    minor,
    rf_add,
    rf_div,
    rf_mul,
    rf_sub,
    signed_product,
)

X = Poly([0, 1])


def P(*coeffs) -> Poly:
    return Poly([Fraction(c) for c in coeffs])


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
small_polys = st.lists(rationals, min_size=0, max_size=9).map(lambda cs: P(*cs))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def series_from_poly(p: Poly, order: int) -> PowerSeries:
    return PowerSeries([p.coefficient(i) for i in range(order)], order)


def sign(x) -> int:
    return (x > 0) - (x < 0)


# -- polynomials ------------------------------------------------------------


def fraction_horner(p: Poly, x: Fraction) -> Fraction:
    """Reference evaluation: Horner's rule in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Reference gcd: the euclidean algorithm over Fractions, made monic."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class TestPoly:
    def test_degree_and_coefficient(self):
        p = P(9, 0, -9, 0, 1)
        assert p.degree == 4
        assert p.coefficient(2) == -9
        assert p.coefficient(17) == 0

    def test_quartic_mod_quadratic(self):
        # (z^4 - 9 z^2 + 9) = (z^2 - 6)(z^2 - 3) - 9
        p = P(9, 0, -9, 0, 1)
        m = P(-3, 0, 1)
        q, r = divmod(p, m)
        assert q == P(-6, 0, 1)
        assert r == P(-9)
        assert p % m == P(-9)
        assert q * m + r == p

    def test_gcd_common_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_gcd_with_zero_is_monic_input(self):
        p = P(2, 0, 4)
        assert poly_gcd(p, Poly([])) == P(Fraction(1, 2), 0, 1)

    def test_squarefree_part_strips_multiplicity(self):
        p = P(-1, 1) * P(-1, 1) * P(-2, 1)
        assert squarefree_part(p) == P(-1, 1) * P(-2, 1)

    def test_evaluation_and_derivative(self):
        p = P(9, 0, -9, 0, 1)
        assert p(Fraction(1)) == 1
        assert p.derivative() == P(0, -18, 0, 4)

    def test_format_readable(self):
        assert format_poly(P(9, 0, -9, 0, 1)) == "z^4 - 9z^2 + 9"
        assert format_poly(P(0)) == "0"
        assert format_poly(P(Fraction(1, 3), 1)) == "z + 1/3"

    @given(small_polys, st.fractions(max_denominator=10**12))
    @example(Poly(), Fraction(3, 7))
    @example(P(-5), Fraction(2, 3))
    @example(P(1, -2, 3), Fraction(0))
    @example(P(2, 0, -1, 1), Fraction(-7, 2))
    @example(P(Fraction(1, 3), -1, 0, 2), Fraction(-1, 10**40 + 1))
    @example(P(-1, 1) * P(-3, 2), Fraction(3, 2))
    def test_horner_matches_fraction_horner(self, p, x):
        want = fraction_horner(p, x)
        assert p(x) == want
        assert p.sign_at(x) == sign(want)

    @given(small_polys, small_polys, small_polys)
    @example(Poly(), Poly(), P(1))
    @example(Poly(), P(2, 4), P(1))
    @example(P(2, 4), Poly(), P(-3))
    @example(P(1, 0, 0, 0, 0, 1), P(1, 1), P(Fraction(-1, 2), 1))
    @example(P(7), P(1, 2, 3), P(1))
    def test_gcd_matches_euclid(self, a, b, c):
        assert poly_gcd(a, b) == euclid_gcd(a, b)
        assert poly_gcd(b, a) == euclid_gcd(b, a)
        assert poly_gcd(a * c, b * c) == euclid_gcd(a * c, b * c)

    @given(small_polys, small_polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(small_polys, nonzero_polys)
    def test_divmod_reconstructs(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


# -- rational functions -----------------------------------------------------


class TestRatFunc:
    def test_cancellation_and_monic_denominator(self):
        r = RatFunc(P(-2, 0, 2), P(-2, 2))
        assert r == RatFunc(P(1, 1), P(1))
        assert r.den == P(1)

    def test_zero_numerator_collapses(self):
        r = RatFunc(Poly([]), P(5, 1))
        assert r.num.is_zero
        assert r.den == P(1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            RatFunc(P(1), Poly([]))

    def test_pole_evaluation_rejected(self):
        r = RatFunc(P(1), P(-1, 1))
        with pytest.raises(PoleError):
            r(Fraction(1))
        assert r(Fraction(2)) == 1

    @given(small_polys, nonzero_polys, nonzero_polys)
    def test_common_factor_invisible(self, a, b, c):
        assert RatFunc(a * c, b * c) == RatFunc(a, b)

    @given(small_polys, nonzero_polys, small_polys, nonzero_polys)
    def test_field_arithmetic(self, a, b, c, d):
        r = RatFunc(a, b)
        s = RatFunc(c, d)
        assert rf_sub(rf_add(r, s), s) == r
        assert rf_sub(s, rf_add(s, r)) == rf_sub(0, r)
        if not s.num.is_zero:
            assert rf_mul(rf_div(r, s), s) == r
            assert rf_mul(3, rf_div(1, s)) == rf_div(3, s)


# -- power series -----------------------------------------------------------


class TestPowerSeries:
    def test_geometric_series(self):
        s = series_from_ratfunc(RatFunc(P(1), P(1, -1)), 6)
        assert s == (1, 1, 1, 1, 1, 1)

    def test_pole_at_zero_rejected(self):
        with pytest.raises(PoleError):
            series_from_ratfunc(RatFunc(P(1), P(0, 1)), 4)

    def test_pole_error_names_the_point(self):
        with pytest.raises(PoleError) as info:
            series_from_ratfunc(RatFunc(P(1), P(0, 1)), 4)
        assert info.value.point == 0
        assert isinstance(info.value.point, Fraction)

    @given(small_polys, nonzero_polys.filter(lambda p: p.coefficient(0) != 0),
           st.integers(min_value=0, max_value=14))
    @example(P(1, 2), P(3, 0, -1, 1), 12)
    @example(P(), P(Fraction(-2, 3)), 5)
    @example(P(0, 0, Fraction(1, 9)), P(1, 0, Fraction(-1, 36), 0, Fraction(1, 54)), 14)
    def test_matches_the_fraction_recurrence(self, num, den, order):
        r = RatFunc(num, den)
        expected = fraction_series(r, order)
        assert series_from_ratfunc(r, order) == expected.coeffs
        # Any scale that makes the denominator integral gives the same series.
        den0 = r.den.coefficient(0)
        scale = 2 * math.lcm(*[(c / den0).denominator for c in r.den.coeffs])
        ints, c = expand_scaled(r, scale, order)
        coeffs = [Fraction(a, c * scale**n) for n, a in enumerate(ints)]
        assert coeffs == list(expected.coeffs)

    def test_expand_scaled_needs_an_integral_denominator(self):
        r = RatFunc(P(1), P(1, Fraction(-1, 4)))
        assert expand_scaled(r, 4, 5) == ([1, 1, 1, 1, 1], 1)
        assert expand_scaled(r, 8, 3) == ([1, 2, 4], 1)
        assert expand_scaled(rf_div(r, 3), 4, 2) == ([1, 1], 3)
        for scale in (2, 3):
            with pytest.raises(ArithmeticError):
                expand_scaled(r, scale, 5)

    def test_compose_simple(self):
        outer = series_from_poly(P(1, 1), 4)
        inner = series_from_poly(P(0, 0, 1), 4)
        assert outer.compose(inner).coeffs == (1, 0, 1, 0)

    def test_compose_rejects_nonzero_constant_term(self):
        outer = series_from_poly(P(1, 1), 4)
        inner = series_from_poly(P(1, 1), 4)
        with pytest.raises(ValueError):
            outer.compose(inner)

    def test_compose_order_propagation(self):
        # valuation 2 inner keeps the inner order
        outer = PowerSeries(series_from_ratfunc(RatFunc(P(1), P(1, -1)), 5))
        inner = series_from_poly(P(0, 0, 1), 9)
        assert outer.compose(inner).order == 9

    def test_truncation_is_prefix(self):
        r = RatFunc(P(1, 2), P(3, 0, -1, 1))
        long = series_from_ratfunc(r, 12)
        short = series_from_ratfunc(r, 5)
        assert long[:5] == short

    @given(st.lists(rationals, min_size=2, max_size=7),
           st.lists(rationals, min_size=1, max_size=6))
    def test_chain_rule(self, outer_c, inner_c):
        outer = PowerSeries([Fraction(c) for c in outer_c], len(outer_c))
        inner = PowerSeries(
            [Fraction(0)] + [Fraction(c) for c in inner_c], len(inner_c) + 1
        )

        def derivative(s):
            coeffs = [i * s.coeffs[i] for i in range(1, s.order)]
            return PowerSeries(coeffs, max(s.order - 1, 0))

        lhs = derivative(outer.compose(inner))
        rhs = derivative(outer).compose(inner) * derivative(inner)
        common = min(lhs.order, rhs.order)
        assert lhs.truncate(common) == rhs.truncate(common)

    def test_arithmetic_tracks_min_order(self):
        a = PowerSeries([1, 2, 3], 3)
        b = PowerSeries([1, 1], 2)
        assert (a + b).order == 2
        assert (a * b).order == 2
        assert (a * b).coeffs == (1, 3)


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


# -- series product against the schoolbook reference ------------------------


def schoolbook_product(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Reference product: the double loop over Fraction coefficients."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * n
    for i, x in enumerate(a.coeffs[:n]):
        for j, y in enumerate(b.coeffs[: n - i]):
            out[i + j] += x * y
    return PowerSeries(out, n)


# Signed numerators up to 2**70 over mixed denominators, so the packed
# slots are many bytes wide and carry borrows from negative products.
wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=1, max_value=10**6),
)
series_coeffs = st.one_of(
    st.lists(wide_rationals, max_size=24),
    st.lists(rationals, max_size=24),
    st.integers(min_value=0, max_value=24).map(lambda n: [Fraction(0)] * n),
)


class TestSeriesProduct:
    @given(series_coeffs, series_coeffs)
    @example([], [Fraction(3)])
    @example([Fraction(-5, 7)], [Fraction(3, 4)])
    @example([Fraction(0)] * 4, [Fraction(1, 3), Fraction(-1, 2)])
    @example([Fraction(-1)] * 9, [Fraction(-1)] * 9)
    @example([Fraction(-(2**70), 3), Fraction(2**70 - 1, 5)], [Fraction(-7, 2)] * 5)
    # bits(255) + bits(127) + 1 is a whole number of bytes, so a slot width
    # without the bits(n) term would overflow on these 24 like-signed sums.
    @example([Fraction(255)] * 24, [Fraction(-127)] * 24)
    def test_matches_schoolbook(self, a_c, b_c):
        a = PowerSeries(a_c)
        b = PowerSeries(b_c)
        expected = schoolbook_product(a, b)
        assert a * b == expected
        assert b * a == expected
        assert (a * b).coeffs == expected.coeffs

    @given(
        st.lists(st.integers(min_value=0, max_value=2**70), min_size=1, max_size=24),
        st.lists(st.integers(min_value=0, max_value=2**70), min_size=1, max_size=24),
        st.integers(min_value=1, max_value=30),
    )
    @example([0], [0], 1)
    @example([1], [1], 30)
    # n * 255 * 255 needs 3 bytes where each factor needs one.
    @example([255] * 24, [255] * 24, 24)
    def test_nonnegative_product_matches_schoolbook(self, a, b, n):
        assert int_product(a, b, n) == schoolbook(a, b, n)

    @given(
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=24),
        st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=24),
        st.integers(min_value=1, max_value=30),
    )
    @example([-1] * 9, [-1] * 9, 9)
    def test_signed_product_matches_schoolbook(self, a, b, n):
        assert signed_product(a, b, n) == schoolbook(a, b, n)

    def test_unknown_tail_shortens_product(self):
        a = PowerSeries([Fraction(1, 2), -3], 5)
        b = PowerSeries([1, Fraction(-2, 3), 0, 4], 4)
        assert (a * b).order == 4
        assert a * b == schoolbook_product(a, b)

    # sha256 of the newline-joined coefficient strings through z^200, as
    # computed by the schoolbook product before the Kronecker engine.
    GOLDEN_ORDER_200 = {
        "diamond": "7d2423196dcc36ca3999f705ea5b454948ed4865bfb109af34821427ece4d106",
        "sierpinski": "9e9646549837d4e8662f6fb0d86c249daa7c9a25352662d4916e6355ff5730b8",
        "theta4": "5779e0de6a3c23f71fdada8c8c04e275aa1cefe4a1b3aea96f65a865fe0a88f1",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_ORDER_200))
    def test_green_series_golden_digest(self, name):
        gs = green_series(cell_functions(builtin_cell(name)), 200)
        text = "\n".join(str(c) for c in gs.coefficients())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.GOLDEN_ORDER_200[name]

    # The same digest through z^400, as computed by the product of composed
    # factors before the nested series engine.
    GOLDEN_ORDER_400 = {
        "diamond": "2c0ae36fea3de23cd5a7dcb4775f28204baa2caa73bad0256edc3cec81a034e1",
        "sierpinski": "9408d0e22a034c48950779dd41daf25d20a0f4f11d95cf983189c646f848cfb1",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_ORDER_400))
    def test_green_series_golden_digest_order_400(self, name):
        gs = green_series(cell_functions(builtin_cell(name)), 400)
        text = "\n".join(str(c) for c in gs.coefficients())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.GOLDEN_ORDER_400[name]


# -- composition against the full-length Horner reference -------------------


def horner_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Reference composition: Horner's rule with every step at full length.

    Each step is one ``Fraction`` series product mod z**n, with
    n = min(inner.order, outer.order * max(valuation(inner), 1)).
    """
    if inner.order == 0:
        return PowerSeries([], 0)
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    val = max(inner.valuation(), 1)
    n = min(inner.order, outer.order * val)
    if n == 0 or outer.order == 0:
        return PowerSeries([], n)
    k_max = outer.order - 1 if val == 1 else min(outer.order - 1, (n - 1) // val)
    inner_n = inner.truncate(n)
    acc = PowerSeries([outer.coeffs[k_max]], n)
    for k in range(k_max - 1, -1, -1):
        acc = acc * inner_n
        acc = PowerSeries((acc.coeffs[0] + outer.coeffs[k],) + acc.coeffs[1:], n)
    return acc


@st.composite
def compose_pairs(draw):
    """An outer series and an inner one of valuation 1..4 (or all zero).

    The outer order ranges over 0..12 and the inner order over 1..12, so
    either may exceed the other.
    """
    coeff = st.one_of(rationals, wide_rationals)
    outer = draw(st.lists(coeff, max_size=12))
    val = draw(st.integers(min_value=1, max_value=4))
    order = draw(st.integers(min_value=1, max_value=12))
    lead = draw(coeff.filter(lambda c: c != 0))
    rest = draw(st.lists(coeff, max_size=max(order - val - 1, 0)))
    inner = ([Fraction(0)] * val + [lead] + rest)[:order]
    return PowerSeries(outer), PowerSeries(inner, order)


class TestCompose:
    @given(compose_pairs())
    # valuation 1 with the outer order above the inner order
    @example((PowerSeries([1, 2, 3, 4, 5, 6]), PowerSeries([0, Fraction(1, 3), -2], 3)))
    @example((PowerSeries([Fraction(2, 7)] * 9), PowerSeries([0, -1], 2)))
    # orders 0 and 1
    @example((PowerSeries([]), PowerSeries([0, 1, 1], 3)))
    @example((PowerSeries([Fraction(5, 3)]), PowerSeries([0, 0, 1], 3)))
    @example((PowerSeries([1, 1]), PowerSeries([0], 1)))
    @example((PowerSeries([1, 1]), PowerSeries([], 0)))
    # valuation 4, outer order below and above the inner order
    @example((PowerSeries([1, -1, 1]), PowerSeries([0, 0, 0, 0, Fraction(1, 2)], 11)))
    @example((PowerSeries([3] * 12), PowerSeries([0, 0, 0, 0, 1, 1, 1], 7)))
    def test_matches_horner_reference(self, pair):
        outer, inner = pair
        result = outer.compose(inner)
        expected = horner_compose(outer, inner)
        assert result == expected
        assert result.order == expected.order


# -- rational function reconstruction ---------------------------------------


def _interpolate_ratfunc(r: RatFunc, num_deg: int, den_deg: int) -> RatFunc:
    """Re-fit r from exact point evaluations; den is forced monic."""
    points = []
    k = 0
    while len(points) < 2 * (num_deg + den_deg) + 1:
        z = Fraction(k, 7)
        k += 1
        if r.den(z) == 0:
            continue
        points.append((z, r(z)))
    unknowns = num_deg + 1 + den_deg
    rows = []
    rhs = []
    for z, val in points[:unknowns]:
        row = [z**j for j in range(num_deg + 1)]
        row += [-val * z**j for j in range(den_deg)]
        rows.append(row)
        rhs.append(val * z**den_deg)
    sol = solve_linear(rows, rhs)
    num = Poly(sol[: num_deg + 1])
    den = Poly(list(sol[num_deg + 1 :]) + [Fraction(1)])
    fitted = RatFunc(num, den)
    for z, val in points:
        assert fitted(z) == val
    return fitted


class TestReinterpolation:
    def test_roundtrip_named_example(self):
        r = RatFunc(P(9, 0, -6), P(9, 0, -9, 0, 1))
        assert _interpolate_ratfunc(r, 2, 4) == r

    @given(st.lists(rationals, min_size=1, max_size=4),
           st.lists(rationals, min_size=1, max_size=4))
    def test_roundtrip_random(self, num_c, den_c):
        den = Poly([Fraction(c) for c in den_c] + [Fraction(1)])
        num = Poly([Fraction(c) for c in num_c])
        if den(Fraction(0)) == 0 or num.is_zero:
            return
        r = RatFunc(num, den)
        assert _interpolate_ratfunc(r, num.degree, den.degree) == r


# -- root isolation ---------------------------------------------------------


def fraction_sturm_chain(p: Poly) -> tuple[Poly, ...]:
    """Reference Sturm chain: Fraction division, then a positive rescaling.

    Each member is scaled by a positive rational so that its coefficients
    are coprime integers.
    """

    def scaled(q: Poly) -> Poly:
        if q.is_zero:
            return q
        den = math.lcm(*(c.denominator for c in q.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in q.coeffs]
        g = math.gcd(*ints)
        return Poly(Fraction(v, g) for v in ints)

    chain = [scaled(p)]
    d = p.derivative()
    if not d.is_zero:
        chain.append(scaled(d))
        while True:
            rem = chain[-2] % chain[-1]
            if rem.is_zero:
                break
            chain.append(scaled(-rem))
    return tuple(chain)


def sturm_smallest_positive_root(
    p: Poly, width: Fraction = DEFAULT_WIDTH
) -> IsolatedRoot:
    """Reference isolation: every bisection step decided by a Sturm count."""
    if p.degree < 1:
        raise NoPositiveRootError("constant polynomial has no roots")
    val = p.valuation()
    if val > 0:
        p = Poly(p.coeffs[val:])
        if p.degree < 1:
            raise NoPositiveRootError("no positive root (pure power of z)")
    sf = squarefree_part(p)
    hi = cauchy_bound(sf)
    while sf(hi) == 0:
        hi += 1
    lo = Fraction(0)
    inside = count_roots(sf, lo, hi)
    if inside == 0:
        raise NoPositiveRootError(f"no positive real root: {p}")
    while inside > 1 or hi - lo > width:
        m = _nonroot_near(sf, (lo + hi) / 2, (hi - lo) / 64)
        if not lo < m < hi:
            m = _nonroot_near(sf, (lo + hi) / 2, (hi - lo) / 1024)
        below = count_roots(sf, lo, m)
        if below:
            hi, inside = m, below
        else:
            lo = m
    return IsolatedRoot(lo, hi, p, _multiplicity_in_bracket(p, lo, hi))


def isolation_outcome(isolate, p: Poly):
    try:
        return isolate(p)
    except NoPositiveRootError:
        return None


# The polynomials that the root tests below isolate, plus a repeated root,
# a rational root behind a power of z, and four rational roots.
ROOT_TEST_POLYS = [
    P(-2, 0, 1),
    P(9, 0, -9, 0, 1),
    P(1, -1),
    P(1, 0, 1),
    P(-2, 0, 1) * P(-5, 1),
    P(-3, 0, 1),
    *(P(-k, 0, k - 1, 1) for k in range(2, 41)),
    P(-2, 0, 1) ** 2 * P(-3, 1),
    P(0, 0, -1, 2),
    P(-1, 1) * P(-2, 1) * P(-3, 1) * P(-4, 1),
]


class TestRoots:
    @pytest.mark.parametrize("p", ROOT_TEST_POLYS, ids=str)
    def test_brackets_match_sturm_bisection(self, p):
        assert isolation_outcome(smallest_positive_root, p) == isolation_outcome(
            sturm_smallest_positive_root, p
        )

    def test_brackets_match_sturm_bisection_on_cell_denominators(self, sweep):
        dens = {
            r.den
            for rec in sweep.records
            for r in (rec.cf.f, rec.cf.d, rec.cf.r)
        }
        for den in sorted(dens, key=lambda q: q.coeffs):
            assert isolation_outcome(smallest_positive_root, den) == (
                isolation_outcome(sturm_smallest_positive_root, den)
            ), den

    def test_sturm_chains_match_fraction_chains_on_cell_denominators(self, sweep):
        dens = {
            r.den
            for rec in sweep.records
            for r in (rec.cf.f, rec.cf.d, rec.cf.r)
        }
        assert len(dens) == 1359
        for den in dens:
            assert sturm_chain(den) == fraction_sturm_chain(den), den
            sf = squarefree_part(den)
            assert sturm_chain(sf) == fraction_sturm_chain(sf), den

    @given(nonzero_polys)
    @example(P(3))
    @example(P(0, 0, 1))
    @example(P(-2, 0, 1) ** 2 * P(-3, 1))
    @example(P(Fraction(-1, 3), 0, 0, -2))
    @example(P(9, 0, -9, 0, 1))
    # Remainders two degrees below a divisor with a negative leading
    # coefficient: an odd power of that coefficient would flip the sign.
    @example(P(1, 1, 0, 0, 2))
    @example(P(-2, 3, -3, -4, -2))
    def test_sturm_chain_matches_fraction_chain(self, p):
        assert sturm_chain(p) == fraction_sturm_chain(p)

    @pytest.mark.parametrize(
        "p, mult",
        [
            (P(-2, 0, 1), 1),
            (P(-2, 0, 1) ** 2 * P(-3, 1), 2),
            (P(-1, 1) ** 3 * P(-2, 1) ** 2, 3),
            (P(-3, 1) * P(-1, 2) ** 2 * P(1, 1) ** 4, 2),
            (P(0, 0, 1) * P(-5, 1) ** 4, 4),
        ],
        ids=str,
    )
    def test_multiplicity_of_smallest_root(self, p, mult):
        assert smallest_positive_root(p).multiplicity == mult

    def test_sqrt_two_bracket(self):
        root = smallest_positive_root(P(-2, 0, 1))
        assert float(root) == pytest.approx(math.sqrt(2), abs=1e-9)
        refined = root.refine(Fraction(1, 10**12))
        assert refined.high - refined.low <= Fraction(1, 10**12)
        assert float(refined) == pytest.approx(math.sqrt(2), abs=1e-11)

    def test_smallest_pole_of_diamond_denominator(self):
        root = smallest_positive_root(P(9, 0, -9, 0, 1))
        # least positive root is 2 sqrt(3) / (1 + sqrt(5))
        target = 2 * math.sqrt(3) / (1 + math.sqrt(5))
        assert float(root.refine(Fraction(1, 10**12))) == pytest.approx(
            target, abs=1e-10
        )
        assert count_roots(P(9, 0, -9, 0, 1), Fraction(0), root.low) == 0

    def test_linear_root(self):
        root = smallest_positive_root(P(1, -1))
        assert root.low < 1 < root.high or Fraction(1) in root

    def test_no_positive_root(self):
        with pytest.raises(NoPositiveRootError):
            smallest_positive_root(P(1, 0, 1))

    def test_roots_equal_across_polynomials(self):
        a = P(-2, 0, 1)
        b = P(-2, 0, 1) * P(-5, 1)
        assert roots_equal(
            smallest_positive_root(a), smallest_positive_root(b)
        )
        assert not roots_equal(
            smallest_positive_root(a), smallest_positive_root(P(-3, 0, 1))
        )

    @given(st.integers(2, 40))
    def test_refinement_never_loses_root(self, denom):
        p = P(-denom, 0, denom - 1, 1)
        root = smallest_positive_root(p)
        refined = root.refine(Fraction(1, 10**9))
        assert root.low <= refined.low <= refined.high <= root.high
        assert p(refined.low) * p(refined.high) <= 0


# -- determinants -----------------------------------------------------------


def det_laplace(rows):
    """Determinant by first-row expansion, memoized on the column subset.

    The reference that Bareiss elimination and det_linear are checked against.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    cache: dict[tuple[int, ...], object] = {}

    def go(cols: tuple[int, ...]):
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = cache.get(cols)
        if got is not None:
            return got
        i = n - len(cols)
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[i][c]
            if entry == 0:
                continue
            sub = go(cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = rows[0][0] * 0
        cache[cols] = acc
        return acc

    return go(tuple(range(n)))


def generic_bareiss(rows):
    """Reference Bareiss elimination over Fraction or Poly entries.

    The divisions are exact by the Bareiss identity: Poly quotients are
    checked for a zero remainder, Fraction quotients are plain divisions.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[0][0] * 0  # zero of the entry domain
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                if prev is None:
                    m[i][j] = num
                elif isinstance(num, Poly):
                    m[i][j], rem = divmod(num, prev)
                    assert rem.is_zero
                else:
                    m[i][j] = num / prev
            m[i][k] = m[i][k] * 0
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


int_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestDeterminants:
    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_bareiss_matches_laplace(self, rows):
        m = [[Fraction(c) for c in row] for row in rows]
        assert generic_bareiss(m) == det_laplace(m)

    def test_identity(self):
        m = [[int(i == j) for j in range(5)] for i in range(5)]
        assert det_bareiss(m) == 1

    @given(int_matrices)
    # Sizes 0 and 1, a zero pivot that needs a row swap, a singular
    # matrix, a column with no pivot, and entries far above one word.
    @example([])
    @example([[-4]])
    @example([[0, 1, 2], [3, 4, 5], [1, 1, 1]])
    @example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    @example([[0, 1], [0, 2]])
    @example([[3**40, 2], [5, -(7**30)]])
    def test_integer_bareiss_matches_generic(self, rows):
        got = det_bareiss(rows)
        assert type(got) is int
        assert got == generic_bareiss([[Fraction(x) for x in r] for r in rows])
        assert got == det_laplace(rows)

    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.lists(rationals, max_size=2).map(lambda cs: P(*cs)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    # A zero pivot at z = 0 that needs a row swap, a singular matrix, and
    # an entry of z alone in the first pivot.
    @example([[P(0), P(1)], [P(1), P(0)]])
    @example([[P(0, 1), P(1, 2)], [P(0, 2), P(2, 4)]])
    @example([[P(0, 1), P(1), P(0)], [P(1), P(0), P(0, -1)], [P(0), P(1, 1), P(3)]])
    @example([])
    @example([[P(Fraction(-3, 7), Fraction(5, 2))]])
    def test_linear_matches_bareiss_and_laplace(self, rows):
        got = det_linear(rows)
        assert isinstance(got, Poly)
        assert got == generic_bareiss(rows)
        assert got == det_laplace(rows)

    def test_linear_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            det_linear([[P(1, 0, 1)]])

    def test_exact_div_on_integers(self):
        q = _exact_div(-(3**40) * 7, 7)
        assert q == -(3**40)
        assert type(q) is int
        with pytest.raises(ArithmeticError):
            _exact_div(10, 4)


def _substochastic(rows):
    """Each row scaled down, when needed, to absolute sum exactly 1."""
    out = []
    for row in rows:
        total = sum(abs(x) for x in row)
        out.append([x / total for x in row] if total > 1 else row)
    return out


substochastic_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.fractions(min_value=-1, max_value=1, max_denominator=6),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    ).map(_substochastic)
)


class TestResolventRow:
    @given(substochastic_matrices)
    # Zero (absorbing) rows; eigenvalue 1/2, where I - zT is singular at
    # z = 2; a stochastic swap, singular at z = 1 and z = -1; a negative
    # diagonal; and the empty matrix.
    @example([[0, 0, 0], [Fraction(1, 2), 0, Fraction(1, 2)], [0, 0, 0]])
    @example([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    @example([[Fraction(1, 2)]])
    @example([[0, 1], [1, 0]])
    @example([[Fraction(-1, 3), Fraction(2, 3)], [0, Fraction(-1)]])
    @example([])
    def test_matches_generic_bareiss_and_laplace(self, t):
        n = len(t)
        m = [[P(int(i == j), -t[i][j]) for j in range(n)] for i in range(n)]
        det, row = resolvent_row(t, range(n))
        assert det == generic_bareiss(m) == det_laplace(m)
        for j, entry in enumerate(row):
            sub = minor(m, j, 0)
            sign = -1 if j % 2 else 1
            assert entry == sign * generic_bareiss(sub) == sign * det_laplace(sub)

    def test_columns_pick_entries_of_the_row(self):
        t = [[0, Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 0, 0], [0, 1, 0]]
        det, row = resolvent_row(t, range(3))
        det2, picked = resolvent_row(t, [2, 0])
        assert det2 == det and picked == [row[2], row[0]]

    def test_row_sum_above_one_rejected(self):
        with pytest.raises(ValueError, match="at most 1"):
            resolvent_row([[Fraction(1, 2), Fraction(2, 3)], [0, 0]], [0])
        with pytest.raises(ValueError, match="at most 1"):
            resolvent_row([[0, 0], [Fraction(-3, 4), Fraction(1, 3)]], [0])

    def test_zero_pivot_raises_without_a_swap(self):
        # [[0, 1], [1, 0]] is invertible, but its first leading minor is 0.
        with pytest.raises(ArithmeticError, match="zero pivot"):
            _adjugate_row([[0, 1, 1], [1, 0, 0]])


# -- brackets ---------------------------------------------------------------


class TestBrackets:
    def test_ln_matches_float_log(self):
        for q in (Fraction(3), Fraction(18), Fraction(5, 3), Fraction(1, 7)):
            b = ln_bracket(q)
            assert abs(float(b) - math.log(q)) < 1e-12
            assert b.width < 1e-20

    def test_log_ratio_of_equal_arguments(self):
        b = log_ratio(Fraction(7), Fraction(7))
        assert b.low <= 1 <= b.high
        assert b.width < 1e-20

    def test_interval_arithmetic(self):
        a = Bracket(Fraction(1), Fraction(2))
        b = Bracket(Fraction(3), Fraction(4))
        assert (a + b).low == 4
        assert (a * b).high == 8
        assert (b / a).low == Fraction(3, 2)
        assert not (a - a).low > 0
        assert (a - a).contains_zero()

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_bracket(Fraction(0))
        with pytest.raises(ValueError):
            ln_bracket(Fraction(-3))
