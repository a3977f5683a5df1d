"""Exact algebra layer: polynomials, rational functions, series, roots."""

from fractions import Fraction
import functools
import hashlib
import math
import random
import sys

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
    smallest_positive_root,
    squarefree_part,
)
from cellgreen.algebra.brackets import DEFAULT_LOG_ERR, _atanh_bracket
from cellgreen.algebra.matrix import (
    _exact_div,
    balanced_digits,
    bareiss_solve,
    resolvent_row,
)
from cellgreen.algebra.roots import (
    DEFAULT_WIDTH,
    IsolatedRoot,
    cauchy_bound,
    descartes_bound,
)
from cellgreen.algebra.poly import schoolbook
from cellgreen.algebra.series import (
    expand_scaled,
    int_product,
    scaled_fractions,
)
from cellgreen.greenkernel import build_pd, build_pf, cell_functions, expansion_polys
from cellgreen.iteration import green_series
from cellgreen.registry import builtin_cell
from routes import (
    PowerSeries,
    det_bareiss,
    det_linear,
    log_ratio,
    minor,
    poly_divmod,
    poly_pow,
    rf_add,
    rf_div,
    rf_mul,
    rf_sub,
    fraction_atanh_bracket,
    fraction_ln_bracket,
    fraction_rows,
    fraction_series,
    integer_rows,
    signed_product,
    solve_linear,
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
        a, b = b, poly_divmod(a, b)[1]
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
        q, r = poly_divmod(p, m)
        assert q == P(-6, 0, 1)
        assert r == P(-9)
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
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


# -- integer Poly against plain Fraction lists ------------------------------


def strip(cs) -> list:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def list_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return strip(x + y for x, y in zip(a, b))


def list_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def assert_poly(p: Poly, ref: list) -> None:
    """p is the polynomial ``ref`` in its one form, and hashes like it."""
    ref = strip(ref)
    assert list(p.coeffs) == ref
    assert p == Poly(ref) and hash(p) == hash(Poly(ref))
    assert p.content > 0 and (not p.ints or p.ints[-1] != 0)
    assert math.gcd(*p.ints) == (1 if p.ints else 0)


# Nonzero multipliers up to 10^40 over up to 10^40: large contents.
contents = st.builds(
    Fraction, st.integers(-(10**40), 10**40).filter(bool), st.integers(1, 10**40)
)
rational_lists = st.builds(
    lambda cs, c: [x * c for x in cs],
    st.lists(rationals, max_size=7),
    st.one_of(st.just(Fraction(1)), contents),
)
list_examples = [
    [],
    [Fraction(0)],
    [Fraction(-5, 3)],
    [Fraction(2), Fraction(0), Fraction(-6)],
    [Fraction(10**40, 3), Fraction(-(10**40), 7), Fraction(0), Fraction(0)],
]


class TestIntegerPoly:
    @given(rational_lists)
    @example(list_examples[4])
    @example([3, Fraction(6), 0])
    def test_one_form(self, c):
        p = Poly(c)
        assert_poly(p, c)
        assert Poly([*c, 0, 0]) == p
        assert hash(Poly(Fraction(x) for x in c)) == hash(p)
        assert Poly.from_ints(p.ints, p.content) == p

    @given(rational_lists, rational_lists, contents)
    @example([], list_examples[3], Fraction(-1))
    @example(list_examples[2], [], Fraction(3))
    @example(list_examples[3], list_examples[4], Fraction(-(10**40), 9))
    @example([Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)], Fraction(-2))
    def test_ring_operations_match_fraction_lists(self, a, b, q):
        pa, pb = Poly(a), Poly(b)
        assert_poly(pa + pb, list_add(a, b))
        assert_poly(pa - pb, list_add(a, [-x for x in b]))
        assert_poly(-pa, [-x for x in a])
        assert_poly(pa * pb, list_mul(a, b))
        assert_poly(pa * q, [x * q for x in a])
        assert_poly(q * pa, [x * q for x in a])
        assert_poly(pa * 0, [])
        assert_poly(pa + q, list_add(a, [q]))
        assert_poly(pa.derivative(), [i * x for i, x in enumerate(a)][1:])
        lead = strip(a)[-1] if strip(a) else 1
        assert_poly(pa.monic(), [x / lead for x in a])

    @given(rational_lists, rational_lists)
    @example(list_examples[3], [Fraction(-1, 2), Fraction(1)])
    @example(list_examples[2], list_examples[4])
    @example([1, 0, 1], [0, 1])
    @example([1, 1], [1, 0, 1])
    @example([1, 1], [])
    def test_exact_division_matches_fraction_division(self, a, b):
        pa, pb = Poly(a), Poly(b)
        if pb.is_zero:
            with pytest.raises(ZeroDivisionError):
                pa // pb
            return
        assert_poly((pa * pb) // pb, a)
        q, r = poly_divmod(pa, pb)
        if r.is_zero:
            assert_poly(pa // pb, list(q.coeffs))
        else:
            with pytest.raises(ArithmeticError):
                pa // pb

    @given(rational_lists, rational_lists, rational_lists)
    @example([], [], list_examples[2])
    @example(list_examples[3], list_examples[4], [Fraction(-2), Fraction(3)])
    def test_gcd_matches_euclid(self, a, b, c):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        for x, y in ((pa, pb), (pa * pc, pb * pc)):
            want = euclid_gcd(x, y)
            assert_poly(poly_gcd(x, y), list(want.coeffs))

    @given(rational_lists, st.fractions(max_denominator=10**12))
    @example([], Fraction(3, 7))
    @example(list_examples[4], Fraction(-7, 2))
    @example(list_examples[3], 2)
    def test_value_and_sign_match_fraction_horner(self, a, x):
        want = Fraction(0)
        for c in reversed(a):
            want = want * x + c
        p = Poly(a)
        assert p(x) == want and type(p(x)) is Fraction
        assert p.sign_at(x) == sign(want)


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
        assert expand_scaled(RatFunc(P(1), P(1, -1)), 1, 6) == ([1] * 6, 1)

    def test_pole_at_zero_rejected(self):
        with pytest.raises(PoleError):
            expand_scaled(RatFunc(P(1), P(0, 1)), 1, 4)

    def test_pole_error_names_the_point(self):
        with pytest.raises(PoleError) as info:
            expand_scaled(RatFunc(P(1), P(0, 1)), 1, 4)
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
        # Any scale that makes the denominator integral gives the same series.
        den0 = r.den.coefficient(0)
        scale = 2 * math.lcm(*[(c / den0).denominator for c in r.den.coeffs])
        ints, c = expand_scaled(r, scale, order)
        coeffs = [Fraction(a, c * scale**n) for n, a in enumerate(ints)]
        assert coeffs == list(expected.coeffs)

    def test_cell_scale_expands_f_d_and_r(self, sweep, builtin_functions):
        # CellFunctions.scale, the lcm of the degrees, makes every
        # denominator integral, and each series is an integer one in z/L.
        cfs = [rec.cf for rec in sweep.records] + list(builtin_functions.values())
        for cf in cfs:
            assert cf.scale == math.lcm(*cf.cell.degrees())
            for r in (cf.f, cf.d, cf.r):
                ints, c = expand_scaled(r, cf.scale, 16)
                assert c == 1
                assert scaled_fractions(ints, c, cf.scale) == (
                    fraction_series(r, 16).coeffs
                )

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
        outer = fraction_series(RatFunc(P(1), P(1, -1)), 5)
        inner = series_from_poly(P(0, 0, 1), 9)
        assert outer.compose(inner).order == 9

    def test_truncation_is_prefix(self):
        r = RatFunc(P(1, 2), P(3, 0, -1, 1))
        long, c = expand_scaled(r, 3, 12)
        assert expand_scaled(r, 3, 5) == (long[:5], c)

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


@functools.lru_cache(maxsize=1024)
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
            rem = poly_divmod(chain[-2], chain[-1])[1]
            if rem.is_zero:
                break
            chain.append(scaled(-rem))
    return tuple(chain)


def sturm_count(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of p in (lo, hi) by the Sturm chain alone, for
    non-root endpoints: the reference for ``count_roots``."""
    if lo >= hi:
        return 0
    chain = fraction_sturm_chain(p)

    def variations(x):
        signs = [sign(q(x)) for q in chain]
        signs = [v for v in signs if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def fraction_descartes(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + t)^n p((lo + hi t)/(1 + t)), expanded as a
    sum of Poly products over Fractions: the reference for
    ``descartes_bound``."""
    n = p.degree
    q = Poly()
    for i, c in enumerate(p.coeffs):
        q = q + c * poly_pow(P(lo, hi), i) * poly_pow(P(1, 1), n - i)
    signs = [c > 0 for c in q.coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def nonroot_near(p: Poly, x: Fraction, step: Fraction) -> Fraction:
    """A point close to x (within |step|) where p does not vanish."""
    if p(x):
        return x
    delta = step
    while True:
        for cand in (x - delta, x + delta):
            if p(cand):
                return cand
        delta = delta / 2


def sturm_multiplicity(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Multiplicity of p's one distinct root in (lo, hi), by Sturm counts."""
    mult = 0
    while p.degree > 0 and sturm_count(p, lo, hi):
        mult += 1
        p = poly_gcd(p, p.derivative())
    return max(mult, 1)


def sturm_smallest_positive_root(
    p: Poly, width: Fraction = DEFAULT_WIDTH
) -> IsolatedRoot:
    """Reference isolation: every bisection step decided by a Sturm count,
    on Fraction midpoints."""
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
    inside = sturm_count(sf, lo, hi)
    if inside == 0:
        raise NoPositiveRootError(f"no positive real root: {p}")
    while inside > 1 or hi - lo > width:
        m = nonroot_near(sf, (lo + hi) / 2, (hi - lo) / 64)
        if not lo < m < hi:
            m = nonroot_near(sf, (lo + hi) / 2, (hi - lo) / 1024)
        below = sturm_count(sf, lo, m)
        if below:
            hi, inside = m, below
        else:
            lo = m
    return IsolatedRoot(lo, hi, p, sturm_multiplicity(p, lo, hi))


def sturm_refine(root: IsolatedRoot, width: Fraction) -> IsolatedRoot:
    """Reference refinement: every halving decided by a Sturm count."""
    p, lo, hi = root.defining, root.low, root.high
    while hi - lo > width:
        m = (lo + hi) / 2
        if p(m) == 0:
            delta = min(hi - m, m - lo, width) / 4
            return IsolatedRoot(m - delta, m + delta, p, root.multiplicity)
        if sturm_count(p, lo, m):
            hi = m
        else:
            lo = m
    return IsolatedRoot(lo, hi, p, root.multiplicity)


def isolation_outcome(isolate, p: Poly):
    try:
        return isolate(p)
    except NoPositiveRootError:
        return None


# The polynomials that the root tests below isolate, plus a repeated root,
# a rational root behind a power of z, and four rational roots.
# Roots on the bisection lattice H j / 2^k, H the Cauchy bound of the
# squarefree part, so that a midpoint lands on a root: (z - 1)^3 at H/2;
# z (z - 3) at 3H/4; (z - 1/6)(z - 7/6) at H/2 while two roots are inside;
# (z - 1/5)(z - 2/5) at H/4 and then H/8; (z - 1/4)(z - 3/4) at H/8.
LATTICE_ROOT_POLYS = [
    (poly_pow(P(-1, 1), 3), Fraction(1, 2)),
    (P(0, -3, 1), Fraction(3, 4)),
    (P(-1, 6) * P(-7, 6), Fraction(1, 2)),
    (P(-1, 5) * P(-2, 5), Fraction(1, 4)),
    (P(-1, 5) * P(-2, 5), Fraction(1, 8)),
    (P(-1, 4) * P(-3, 4), Fraction(1, 8)),
]

ROOT_TEST_POLYS = [
    P(-2, 0, 1),
    P(9, 0, -9, 0, 1),
    P(1, -1),
    P(1, 0, 1),
    P(-2, 0, 1) * P(-5, 1),
    P(-3, 0, 1),
    *(P(-k, 0, k - 1, 1) for k in range(2, 41)),
    poly_pow(P(-2, 0, 1), 2) * P(-3, 1),
    P(0, 0, -1, 2),
    P(-1, 1) * P(-2, 1) * P(-3, 1) * P(-4, 1),
    *(p for p, _ in LATTICE_ROOT_POLYS),
]


@st.composite
def clustered_roots(draw):
    """``(p, lo, hi)`` with two or more roots of p, counted with
    multiplicity, in (lo, hi), so that V >= 2: rational roots clustered
    within 10^-1, 10^-3 or 10^-6 of each other, maybe one of them repeated
    and maybe an almost real complex pair, on an interval around them that
    may be centred on a root, so that the first split point is one."""
    centre = draw(st.fractions(min_value=0, max_value=4, max_denominator=8))
    scale = draw(st.sampled_from([10, 1000, 10**6]))
    gaps = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4, unique=True))
    roots = [centre + Fraction(gap, scale) for gap in gaps]
    p = P(1)
    for r in roots + draw(st.lists(st.sampled_from(roots), max_size=1)):
        p = p * P(-r, 1)
    if draw(st.booleans()):
        c = centre + Fraction(draw(st.integers(0, 20)), 2 * scale)
        eps = Fraction(1, draw(st.sampled_from([10, 10**4, 10**9])))
        p = p * P(c * c + eps * eps, -2 * c, 1)
    if draw(st.booleans()):
        r = draw(st.sampled_from(roots))
        half = 1 + draw(st.fractions(min_value=0, max_value=2, max_denominator=16))
        return p, r - half, r + half
    below = draw(st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16))
    above = draw(st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16))
    return p, centre - below, centre + 1 + above


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

    @pytest.mark.parametrize(
        "p, mult",
        [
            (P(-2, 0, 1), 1),
            (poly_pow(P(-2, 0, 1), 2) * P(-3, 1), 2),
            (poly_pow(P(-1, 1), 3) * poly_pow(P(-2, 1), 2), 3),
            (P(-3, 1) * poly_pow(P(-1, 2), 2) * poly_pow(P(1, 1), 4), 2),
            (P(0, 0, 1) * poly_pow(P(-5, 1), 4), 4),
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


    @pytest.mark.parametrize("p, at", LATTICE_ROOT_POLYS, ids=str)
    def test_root_on_a_lattice_midpoint(self, p, at):
        sf = squarefree_part(Poly.from_ints(p.ints[p.valuation():]))
        assert p(at * cauchy_bound(sf)) == 0
        root = smallest_positive_root(p)
        assert root == sturm_smallest_positive_root(p)
        width = Fraction(1, 2**40)
        assert root.refine(width) == sturm_refine(root, width)

    @pytest.mark.parametrize(
        "root",
        [
            # Equal signs at the endpoints: a double root, Sturm halving.
            smallest_positive_root(poly_pow(P(-2, 0, 1), 2) * P(-3, 1)),
            smallest_positive_root(P(0, 0, 1) * poly_pow(P(-5, 1), 4)),
            # A root on the first midpoint, of even and of odd multiplicity;
            # the last with a multiplicity field that does not say so.
            IsolatedRoot(Fraction(0), Fraction(2), poly_pow(P(-1, 1), 2), 2),
            IsolatedRoot(Fraction(1, 3), Fraction(5, 3), P(-1, 1)),
            IsolatedRoot(Fraction(0), Fraction(3), poly_pow(P(-1, 1), 3), 1),
            IsolatedRoot(Fraction(1, 2), Fraction(3), poly_pow(P(-1, 1), 3), 1),
        ],
        ids=str,
    )
    def test_refine_matches_sturm_halving(self, root):
        for width in (Fraction(1, 3), Fraction(1, 2**20), Fraction(1, 10**15)):
            assert root.refine(width) == sturm_refine(root, width)

    @pytest.mark.parametrize(
        "p, lo, hi, v, count",
        [
            # Two complex roots near 1: V = 2 and no root.
            (P(Fraction(101, 100), -2, 1), Fraction(0), Fraction(2), 2, 0),
            # Two real roots: V = 2 and two roots.
            (P(-1, 2) * P(-3, 2), Fraction(0), Fraction(2), 2, 2),
            # Both, and a double root at 1: V = 4, one distinct root.
            (P(-1, 2) * P(-3, 2) * poly_pow(P(-1, 1), 2), Fraction(0), Fraction(2), 4, 3),
            (poly_pow(P(-1, 1), 2), Fraction(0), Fraction(2), 2, 1),
            (P(-1, 1), Fraction(0), Fraction(2), 1, 1),
            (P(-1, 1), Fraction(2), Fraction(3), 0, 0),
            # The transform is 2t^2 + 2: a zero between two positives.
            (P(1, 0, 1), Fraction(-1), Fraction(1), 0, 0),
        ],
    )
    def test_sturm_fallback_above_one_variation(self, p, lo, hi, v, count):
        assert descartes_bound(p, lo, hi) == v
        assert count_roots(p, lo, hi) == sturm_count(p, lo, hi) == count

    def test_six_close_roots_pin_the_bracket_and_the_bounds(self, monkeypatch):
        # Six roots 1, 1.1, ..., 1.5: (0, H) and four lower halves get
        # Descartes bounds of 6, and the next lower half, with the roots
        # 1, 1.1 and 1.2, gets 3.  Two root-free lower halves are dropped
        # before the piece (0.93, 1.08) of the root 1 gets V = 1.  The
        # last bound is the multiplicity's count on the final bracket.
        p = P(1)
        for r in range(10, 16):
            p = p * P(-r, 10)
        roots = sys.modules["cellgreen.algebra.roots"]
        real_bound = roots.descartes_bound
        bounds = []

        def bound(*args):
            bounds.append(real_bound(*args))
            return bounds[-1]

        monkeypatch.setattr(roots, "descartes_bound", bound)
        root = smallest_positive_root(p)
        assert (root.low, root.high) == (
            Fraction(549755813673, 549755813888),
            Fraction(274877906995, 274877906944),
        )
        assert bounds == [6, 6, 6, 6, 6, 3, 0, 3, 0, 3, 1, 1]
        monkeypatch.undo()
        assert root == sturm_smallest_positive_root(p)

    @pytest.mark.parametrize(
        "p, v, deeper",
        [
            # Two roots 10^-12 apart: V >= 2 and then a count of 2 go on
            # splitting the least root's piece far below the width.
            (
                P(Fraction(-1, 3), 1) * P(-Fraction(1, 3) - Fraction(1, 10**12), 1),
                1,
                True,
            ),
            # A complex pair 10^-12 off the root 1/3: V = 3 on the final
            # bracket, where the exact count of 1 stops the search.
            (
                P(Fraction(-1, 3), 1)
                * (P(Fraction(-1, 3), 1) * P(Fraction(-1, 3), 1) + P(Fraction(1, 10**24))),
                3,
                False,
            ),
        ],
        ids=["close roots", "complex pair"],
    )
    def test_bounds_above_one_below_the_width(self, p, v, deeper):
        root = smallest_positive_root(p)
        assert root == sturm_smallest_positive_root(p)
        assert descartes_bound(squarefree_part(p), root.low, root.high) == v
        assert (root.width < DEFAULT_WIDTH / 2**10) == deeper

    @given(clustered_roots())
    # The first split point, the midpoint of (0, 2), is the root 1.
    @example((P(-1, 1) * P(-1, 2) * P(-3, 2), Fraction(0), Fraction(2)))
    # Two roots and a complex pair 10^-9 off the real axis between them.
    @example(
        (
            P(-1, 1)
            * P(-2, 1)
            * (P(Fraction(-3, 2), 1) * P(Fraction(-3, 2), 1) + P(Fraction(1, 10**18))),
            Fraction(1, 2),
            Fraction(5, 2),
        )
    )
    def test_bisected_counts_match_sturm(self, case):
        p, lo, hi = case
        assert descartes_bound(p, lo, hi) >= 2
        assert count_roots(p, lo, hi) == sturm_count(p, lo, hi)

    @given(
        nonzero_polys,
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12),
    )
    # Zero coefficients before and after the transform, and a root at an
    # endpoint.
    @example(P(-1, 0, 1), Fraction(-2), Fraction(4))
    @example(P(0, 1), Fraction(-1), Fraction(2))
    @example(P(1, 0, 0, 1), Fraction(-3), Fraction(5))
    @example(P(-1, 1), Fraction(1), Fraction(1))
    def test_descartes_bounds_the_sturm_count(self, p, lo, width):
        hi = lo + width
        if p(lo) == 0 or p(hi) == 0:
            with pytest.raises(ValueError, match="endpoint is a root"):
                count_roots(p, lo, hi)
            return
        v = descartes_bound(p, lo, hi)
        assert v == fraction_descartes(p, lo, hi)
        want = sturm_count(p, lo, hi)
        assert want <= v
        if v <= 1:
            assert v == want
        assert count_roots(p, lo, hi) == want

    def test_descartes_matches_sturm_on_cell_polynomials(self, sweep):
        rng = random.Random(24)
        cases = conclusive = 0
        for rec in sweep.records:
            cf = rec.cf
            rho = cf.rho_d
            polys = [cf.f.den, cf.d.den, cf.r.den]
            polys += [q for q, _ in expansion_polys(cf.d)]
            for p in polys:
                a = Fraction(rng.randrange(0, 64), rng.randrange(1, 32))
                b = a + Fraction(rng.randrange(1, 64), rng.randrange(1, 32))
                for lo, hi in ((Fraction(1), rho.low), (rho.low, rho.high), (a, b)):
                    if lo >= hi or p(lo) == 0 or p(hi) == 0:
                        continue
                    v = descartes_bound(p, lo, hi)
                    want = sturm_count(p, lo, hi)
                    assert want <= v, (p, lo, hi)
                    if v <= 1:
                        assert v == want, (p, lo, hi)
                        conclusive += 1
                    assert count_roots(p, lo, hi) == want
                    cases += 1
        assert cases > 10_000 and conclusive > cases // 2


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
                    m[i][j], rem = poly_divmod(num, prev)
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


@st.composite
def integer_matrices(draw, min_size=0):
    """``(a, c)`` with 1 <= a_i <= 6 and sum_j |c_ij| <= a_i, of both signs."""
    n = draw(st.integers(min_size, 6))
    a, c = [], []
    for _ in range(n):
        a.append(draw(st.integers(1, 6)))
        row, budget = [], a[-1]
        for _ in range(n):
            row.append(draw(st.integers(-budget, budget)))
            budget -= abs(row[-1])
        c.append(draw(st.permutations(row)))
    return a, c


class TestResolventRow:
    @given(st.one_of(integer_matrices(), substochastic_matrices.map(integer_rows)))
    # Zero (absorbing) rows; eigenvalue 1/2, where I - zT is singular at
    # z = 2; a stochastic swap, singular at z = 1 and z = -1; a negative
    # diagonal; the empty matrix; a zero row with a scale above 1; and
    # p = (1 + z)^2, whose middle coefficient 2 needs the diagonal's |c_ii|
    # in the bound.
    @example(integer_rows([[0, 0, 0], [Fraction(1, 2), 0, Fraction(1, 2)], [0, 0, 0]]))
    @example(integer_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]))
    @example(integer_rows([[Fraction(1, 2)]]))
    @example(integer_rows([[0, 1], [1, 0]]))
    @example(integer_rows([[Fraction(-1, 3), Fraction(2, 3)], [0, Fraction(-1)]]))
    @example(integer_rows([]))
    @example(([2, 3], [[0, 0], [1, -2]]))
    @example(([1, 1], [[-1, 0], [0, -1]]))
    def test_matches_generic_bareiss_and_laplace(self, ac):
        a, c = ac
        t = fraction_rows(a, c)
        n = len(t)
        m = [[P(int(i == j), -t[i][j]) for j in range(n)] for i in range(n)]
        det, row = resolvent_row(a, c, range(n))
        assert det == generic_bareiss(m) == det_laplace(m)
        for j, entry in enumerate(row):
            sub = minor(m, j, 0)
            sign = -1 if j % 2 else 1
            assert entry == sign * generic_bareiss(sub) == sign * det_laplace(sub)

    @given(integer_matrices(min_size=1), st.data())
    def test_scaling_a_row_leaves_the_outputs_unchanged(self, ac, data):
        # T = diag(a)^-1 C is the same matrix: P_d's absorbing rows carry
        # a_i = deg(i) where rows with cleared denominators carried 1.
        a, c = ac
        i = data.draw(st.integers(0, len(a) - 1))
        k = data.draw(st.integers(2, 5))
        scaled_a = [s * k if r == i else s for r, s in enumerate(a)]
        scaled_c = [[x * k for x in row] if r == i else row for r, row in enumerate(c)]
        cols = range(len(a))
        assert resolvent_row(scaled_a, scaled_c, cols) == resolvent_row(a, c, cols)

    def test_columns_pick_entries_of_the_row(self):
        # T = [[0, 1/2, 1/3], [1/4, 0, 0], [0, 1, 0]].
        a, c = [6, 4, 1], [[0, 3, 2], [1, 0, 0], [0, 1, 0]]
        det, row = resolvent_row(a, c, range(3))
        det2, picked = resolvent_row(a, c, [2, 0])
        assert det2 == det and picked == [row[2], row[0]]

    def test_row_sum_above_one_rejected(self):
        # Rows [1/2, 2/3] and [-3/4, 1/3] of T.
        with pytest.raises(ValueError, match="at most 1"):
            resolvent_row([6, 1], [[3, 4], [0, 0]], [0])
        with pytest.raises(ValueError, match="at most 1"):
            resolvent_row([1, 12], [[0, 0], [-9, 4]], [0])

    def test_zero_scale_rejected(self):
        # A zero row with a_i = 0 passes the row-sum check, and its pivot
        # would be 0.
        with pytest.raises(ValueError, match="positive row scales"):
            resolvent_row([1, 0], [[0, 1], [0, 0]], [0])

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="positive row scales"):
            resolvent_row([1, -2], [[0, 1], [0, 0]], [0])

    def test_zero_pivot_raises_without_a_swap(self):
        # [[0, 1], [1, 0]] is invertible, but its first leading minor is 0.
        with pytest.raises(ArithmeticError, match="zero pivot"):
            bareiss_solve([[0, 1, 1], [1, 0, 0]])

    def test_one_elimination_per_call(self, count_calls):
        calls = count_calls("cellgreen.algebra.matrix", "bareiss_solve")
        g = builtin_cell("theta4")
        for c, cols in ((build_pf(g), [0]), (build_pd(g), range(1, g.theta))):
            resolvent_row(g.degrees(), c, cols)
        assert len(calls) == 2

    def test_negative_entries_give_coefficients_of_both_signs(self):
        # Upper triangular, with five diagonal entries -1 and one +1:
        # p = (1 + z)^5 (1 - z).  The coefficient 5 is above the digit
        # range that the off-diagonal weights alone would allow.
        n = 7
        a, c = [2] + [1] * (n - 1), [[0] * n for _ in range(n)]
        c[0][1], c[0][6] = 1, -1
        for i in range(1, 6):
            c[i][i] = -1
        c[6][6] = 1
        t = fraction_rows(a, c)
        m = [[P(int(i == j), -t[i][j]) for j in range(n)] for i in range(n)]
        det, row = resolvent_row(a, c, range(n))
        assert det == P(1, 4, 5, 0, -5, -4, -1) == det_laplace(m)
        for j, entry in enumerate(row):
            sign = -1 if j % 2 else 1
            assert entry == sign * det_laplace(minor(m, j, 0))
        assert [bool(e) for e in row] == [True, True, False, False, False, False, True]


class TestBalancedDigits:
    def test_reads_back_signed_coefficients(self):
        # Base 2^4: every digit in [-8, 8).
        for coeffs in ([3, -7, 0, 7, -8, 1], [-3, 7, 0, -7, 1, -1], [0, 0, 0]):
            top = len(coeffs) - 1
            v = sum(c << (4 * (top - m)) for m, c in enumerate(coeffs))
            assert balanced_digits(v, 4, top) == coeffs

    def test_one_digit_too_many_raises(self):
        coeffs = [1, -7, 0, 7]
        v = sum(c << (4 * (3 - m)) for m, c in enumerate(coeffs))
        assert balanced_digits(v, 4, 3) == coeffs
        with pytest.raises(ArithmeticError, match="more base-2\\^k digits"):
            balanced_digits(v, 4, 2)
        # 8 = 2^3 is no digit of base 2^4: it reads as 16 - 8.
        with pytest.raises(ArithmeticError):
            balanced_digits(8, 4, 0)


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

    @pytest.mark.parametrize(
        "abs_err",
        [Fraction(1, 2), Fraction(1, 10**6), Fraction(1, 10**30), Fraction(3, 2**101)],
        ids=["1/2", "1e-6", "1e-30", "3/2^101"],
    )
    def test_atanh_matches_the_fraction_series(self, abs_err):
        # Every t that ln_bracket passes lies in [-1/7, 1/5).
        ts = {Fraction(a, b) for b in range(1, 14) for a in range(-b + 1, b)}
        ts |= {Fraction(a, 10**9 + 7) for a in (-1, 10**8, -(10**8), 2 * 10**8)}
        for t in sorted(ts):
            assert _atanh_bracket(t, abs_err) == fraction_atanh_bracket(t, abs_err), t

    @pytest.mark.parametrize(
        "abs_err",
        [Fraction(1, 10**6), DEFAULT_LOG_ERR, Fraction(1, 2**200)],
        ids=["1e-6", "default", "2^-200"],
    )
    def test_ln_matches_the_fraction_route(self, abs_err):
        qs = {Fraction(a, b) for a in range(1, 30) for b in range(1, 12)}
        qs |= {Fraction(3, 2), Fraction(3, 4), Fraction(2**70 + 1, 3), Fraction(1, 10**25)}
        for q in sorted(qs):
            assert ln_bracket(q, abs_err) == fraction_ln_bracket(q, abs_err), q

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_bracket(Fraction(0))
        with pytest.raises(ValueError):
            ln_bracket(Fraction(-3))
