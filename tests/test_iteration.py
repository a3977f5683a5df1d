"""Infinite-graph series via the product of rescaled return functions."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellgreen import (
    KernelError,
    blowup,
    builtin_cell,
    builtin_names,
    cell_functions,
    enumerate_cells,
    green_series,
    invariants,
)
from cellgreen.iteration import (
    functional_residual,
    iteration_hypotheses,
    singular_prefactor_probe,
)
from cellgreen.algebra import Poly, RatFunc, series_from_ratfunc
from cellgreen.algebra.series import scaled_fractions
from routes import (
    PowerSeries,
    fraction_residual,
    green_series_recursion,
    log_ratio,
    nested_green_series,
    star_series,
)


@pytest.fixture(scope="module")
def diamond_cf():
    return cell_functions(builtin_cell("diamond"))


@pytest.fixture(scope="module")
def path2_cf():
    return cell_functions(builtin_cell("path2"))


def product_green_series(cf, order: int) -> tuple[PowerSeries, int]:
    """Reference expansion: the product of f(d_k(z)) over the iterates d_k.

    Each level composes f and d with the previous iterate at full length;
    a factor whose iterate vanishes beyond z^order is dropped.  Returns the
    series and the number of factors multiplied.
    """
    count = order + 1
    f_ser = PowerSeries(series_from_ratfunc(cf.f, count))
    d_ser = PowerSeries(series_from_ratfunc(cf.d, count))
    product = f_ser
    factors = 1
    inner = d_ser
    while inner.valuation() <= order:
        product = product * f_ser.compose(inner)
        factors += 1
        inner = d_ser.compose(inner)
    return product, factors


SMALL_CELLS = tuple(enumerate_cells(2, 7))


class TestGreenSeries:
    def test_diamond_prefix(self, diamond_cf):
        gs = green_series(diamond_cf, 8)
        assert gs.coefficients() == (
            1, 0, Fraction(1, 3), 0, Fraction(2, 9), 0,
            Fraction(5, 27), 0, Fraction(40, 243),
        )
        assert gs.factors_used == 2

    def test_diamond_deviates_from_cell_series_at_eight(
        self, diamond_cf, cell_green_series
    ):
        cell = cell_green_series(builtin_cell("diamond"), 9)
        infinite = green_series(diamond_cf, 8)
        assert cell.coeffs[:8] == infinite.coefficients()[:8]
        assert cell.coeffs[8] == Fraction(14, 81)
        assert infinite.coefficient(8) == Fraction(40, 243)

    def test_factor_count_grows_logarithmically(self, diamond_cf, path2_cf):
        assert green_series(diamond_cf, 100).factors_used == 4
        assert green_series(path2_cf, 100).factors_used == 7
        for order in (10, 40, 200):
            gs = green_series(path2_cf, order)
            assert gs.factors_used <= math.log2(order) + 2

    def test_prefix_stable_under_order_growth(self, diamond_cf):
        long = green_series(diamond_cf, 24)
        short = green_series(diamond_cf, 9)
        assert long.coefficients()[:10] == short.coefficients()
        assert long.ints[:10] == short.ints

    def test_recursion_route_agrees(self):
        for name in ("diamond", "path2", "path3", "sierpinski", "theta4"):
            cf = cell_functions(builtin_cell(name))
            product = green_series(cf, 20)
            direct = green_series_recursion(cf, 20)
            assert PowerSeries(product.coefficients()) == direct

    @given(st.sampled_from(SMALL_CELLS), st.integers(min_value=0, max_value=24))
    def test_nested_product_and_recursion_routes_agree(self, g, order):
        cf = cell_functions(g)
        nested = green_series(cf, order)
        product, factors = product_green_series(cf, order)
        assert PowerSeries(nested.coefficients()) == product
        assert nested.factors_used == factors
        assert green_series_recursion(cf, order) == product

    @settings(deadline=None)
    @given(st.sampled_from(SMALL_CELLS), st.integers(min_value=0, max_value=60))
    @example(SMALL_CELLS[0], 60)
    @example(SMALL_CELLS[-1], 60)
    def test_integer_route_matches_the_rational_route(self, g, order):
        cf = cell_functions(g)
        gs = green_series(cf, order)
        assert gs == nested_green_series(cf, order)
        assert PowerSeries(gs.coefficients()) == green_series_recursion(cf, order)

    @pytest.mark.parametrize("name", builtin_names())
    def test_integer_route_matches_the_rational_route_on_builtins(self, name):
        cf = cell_functions(builtin_cell(name))
        ref = nested_green_series(cf, 140)
        for order in range(141):
            gs, short = green_series(cf, order), ref.truncate(order)
            assert gs.ints == short.ints
            assert gs.f_ints == short.f_ints
            assert gs.d_ints == short.d_ints
        for order in (0, 1, 2, 3, 7, 8, 64, 139):
            assert green_series(cf, order) == nested_green_series(cf, order)

    def test_fold_covers_every_bipartite_cell(self, count_calls):
        # diamond's d has only even terms and path3's only odd ones; in
        # both, f and d^2 have no odd terms, so G is solved in w^2 from
        # 31 of its 61 coefficients.  sierpinski's f has odd terms.
        levels = count_calls("cellgreen.iteration", "_solve_levels")
        solved, d_even = {}, {}
        for name in ("diamond", "path3", "sierpinski"):
            cf = cell_functions(builtin_cell(name))
            gs = green_series(cf, 60)
            solved[name] = len(levels[-1][0])
            d_even[name] = not any(gs.d_ints[1::2])
            assert gs == nested_green_series(cf, 60)
            if name != "sierpinski":
                assert not any(gs.f_ints[1::2])
                assert not any(gs.coefficients()[1::2])
        assert solved == {"diamond": 31, "path3": 31, "sierpinski": 61}
        assert d_even == {"diamond": True, "path3": False, "sierpinski": False}

    def test_scaled_coefficients_are_integers(self, enumerated_cells):
        # L^n g_n is an integer for L the lcm of the cell degrees, since
        # every vertex of the limit graph has a cell degree.
        cells = [builtin_cell(name) for name in builtin_names()]
        for g in cells + list(enumerated_cells[::7]):
            scale = math.lcm(*g.degrees())
            gs = green_series(cell_functions(g), 64)
            assert gs.scale == scale
            for n, c in enumerate(gs.coefficients()):
                assert c * scale**n == gs.ints[n]
        for g in cells:
            degrees = set(g.degrees())
            for level in (1, 2, 3):
                a = blowup(g, level)
                assert {int(x) for x in np.diff(a.indptr)} <= degrees

    # factors_used as counted by the product route before the nested engine
    FACTORS_USED = {
        "diamond": (1, 1, 1, 1, 4),
        "path2": (1, 1, 2, 2, 8),
        "sierpinski": (1, 1, 2, 2, 8),
        "theta4": (1, 1, 1, 2, 5),
    }

    @pytest.mark.parametrize("name", sorted(FACTORS_USED))
    def test_factors_used_unchanged(self, name):
        cf = cell_functions(builtin_cell(name))
        counts = tuple(green_series(cf, n).factors_used for n in (0, 1, 2, 3, 200))
        assert counts == self.FACTORS_USED[name]

    def test_functional_residual_vanishes(self):
        for name in ("diamond", "path2", "sierpinski"):
            cf = cell_functions(builtin_cell(name))
            gs = green_series(cf, 40)
            assert functional_residual(gs) == [0] * 41
            assert fraction_residual(gs).is_zero

    def test_series_carries_the_expansions_it_was_solved_from(self, diamond_cf):
        gs = green_series(diamond_cf, 40)
        # Only integers: the Fractions are made where they are read.
        assert set(vars(gs)) == {
            "ints", "factors_used", "order", "f_ints", "d_ints", "scale"
        }
        assert all(type(x) is int for x in gs.ints + gs.f_ints + gs.d_ints)
        assert gs.scale == 6 and len(gs.ints) == len(gs.f_ints) == len(gs.d_ints) == 41
        f, d = diamond_cf.f, diamond_cf.d
        assert scaled_fractions(gs.f_ints, 1, 6) == series_from_ratfunc(f, 41)
        assert scaled_fractions(gs.d_ints, 1, 6) == series_from_ratfunc(d, 41)
        short = gs.truncate(10)
        assert short.ints == gs.ints[:11]
        assert short.coefficients() == gs.coefficients()[:11]
        assert scaled_fractions(short.f_ints, 1, 6) == series_from_ratfunc(f, 11)
        assert scaled_fractions(short.d_ints, 1, 6) == series_from_ratfunc(d, 11)
        assert functional_residual(short) == [0] * 11
        with pytest.raises(ValueError):
            gs.truncate(41)
        with pytest.raises(IndexError):
            gs.coefficient(41)
        with pytest.raises(IndexError):
            gs.coefficient(-1)

    def test_star_closed_form(self, path2_cf):
        gs = green_series(path2_cf, 100)
        assert PowerSeries(gs.coefficients()) == star_series(101)
        for m in (0, 1, 2, 6, 50):
            assert gs.coefficient(2 * m) == Fraction(
                math.comb(2 * m, m), 4**m
            )
        assert gs.coefficient(12) == Fraction(231, 1024)


@st.composite
def perturbed_cases(draw):
    """A small cell, an order, and a change to one b_n with 1 <= n <= order."""
    g = draw(st.sampled_from(SMALL_CELLS))
    order = draw(st.integers(min_value=1, max_value=60))
    n = draw(st.integers(min_value=1, max_value=order))
    delta = draw(st.sampled_from((-2, -1, 1, 3)))
    return g, order, n, delta


class TestFunctionalResidual:
    @settings(deadline=None, max_examples=60)
    @given(perturbed_cases())
    @example((SMALL_CELLS[0], 60, 60, 1))
    @example((SMALL_CELLS[-1], 60, 1, -1))
    @example((SMALL_CELLS[-1], 1, 1, 1))
    def test_zero_on_the_series_and_not_on_a_perturbed_one(self, case):
        g, order, n, delta = case
        cf = cell_functions(g)
        gs = green_series(cf, order)
        assert functional_residual(gs) == [0] * (order + 1)
        ints = list(gs.ints)
        ints[n] += delta
        bad = dataclasses.replace(gs, ints=tuple(ints))
        residual = functional_residual(bad)
        # b_n enters f*(G over d) only from w^(2n) on, and L^K B at w^n.
        top = order // cf.d.num.valuation()
        assert residual[:n] == [0] * n
        assert residual[n] == gs.scale**top * delta
        # Coefficient j in w is L^(K+j) times that of the Fraction route in z.
        expected = fraction_residual(bad).coeffs
        assert residual == [gs.scale ** (top + j) * c for j, c in enumerate(expected)]

    @pytest.mark.parametrize("name", builtin_names())
    def test_matches_the_fraction_route_on_builtins(self, name):
        # At orders 17 and 48, g_K != 0 on sierpinski, theta4 and path2, so
        # there the last term b_K D^K of the sum is not zero.
        cf = cell_functions(builtin_cell(name))
        gs = green_series(cf, 48)
        top = 48 // cf.d.num.valuation()
        for order in (0, 1, 2, 5, 17, 48):
            short = gs.truncate(order)
            assert functional_residual(short) == [0] * (order + 1)
        ints = list(gs.ints)
        ints[-1] += 1
        bad = dataclasses.replace(gs, ints=tuple(ints))
        expected = fraction_residual(bad).coeffs
        assert functional_residual(bad) == [
            gs.scale ** (top + j) * c for j, c in enumerate(expected)
        ]


class TestInvariants:
    def test_diamond(self):
        inv = invariants(builtin_cell("diamond"))
        assert inv.tau == 18
        assert inv.alpha == 3
        assert inv.mu == 6
        assert inv.bipartite
        ref = -(log_ratio(Fraction(3), Fraction(18)))
        assert inv.eta.overlaps(ref)
        assert inv.eta.overlaps(inv.eta_alt)
        assert inv.eta.width < Fraction(1, 10**10)
        assert float(inv.eta) == pytest.approx(-0.380093766716, abs=1e-9)

    def test_sierpinski(self):
        inv = invariants(builtin_cell("sierpinski"))
        assert inv.tau == 5
        assert inv.alpha == Fraction(5, 3)
        assert inv.mu == 3
        assert not inv.bipartite
        assert float(inv.eta) == pytest.approx(-0.317393805514, abs=1e-9)

    def test_theta4(self):
        inv = invariants(builtin_cell("theta4"))
        assert inv.tau == 15
        assert inv.alpha == 3
        assert inv.mu == 5
        assert float(inv.eta) == pytest.approx(-0.405683871082, abs=1e-9)

    def test_paths_sit_at_minus_half(self):
        for name in ("path2", "path3"):
            inv = invariants(builtin_cell(name))
            assert inv.alpha == inv.mu
            assert inv.tau == inv.mu**2
            assert inv.eta.low <= Fraction(-1, 2) <= inv.eta.high

    def test_scaling_identity_everywhere(self):
        for name in ("diamond", "path2", "path3", "sierpinski", "theta4"):
            inv = invariants(builtin_cell(name))
            assert inv.tau == inv.mu * inv.alpha


class TestHypotheses:
    def test_diamond_passes(self, diamond_cf):
        rep = iteration_hypotheses(diamond_cf.d)
        assert rep.all_passed
        assert [item.name for item in rep.items] == [
            "fixed_origin",
            "zero_multiplier",
            "no_iterate_is_identity",
        ]

    def test_identity_map_rejected(self):
        z = RatFunc(Poly([0, 1]), Poly([1]))
        rep = iteration_hypotheses(z)
        assert not rep.all_passed

    def test_linear_map_rejected(self):
        half_z = RatFunc(Poly([0, Fraction(1, 2)]), Poly([1]))
        rep = iteration_hypotheses(half_z)
        assert not rep.all_passed

    def test_quadratic_map_accepted(self):
        sq = RatFunc(Poly([0, 0, 1]), Poly([1]))
        assert iteration_hypotheses(sq).all_passed

    def test_multiplier_matches_the_derivative_at_zero(self):
        maps = [
            RatFunc(Poly([0, Fraction(1, 2)])),
            RatFunc(Poly([0, 1]), Poly([2, -1])),
            RatFunc(Poly([0, 0, 1]), Poly([3, 1])),
            RatFunc(Poly([0, -1, 0, 1]), Poly([1, 0, 1])),
            RatFunc(Poly([0, 0, 0, 0, 1]), Poly([9, 0, -9, 0, 1])),
        ]
        for b in maps:
            item = iteration_hypotheses(b).items[1]
            assert item.name == "zero_multiplier"
            # b'(0) by the quotient rule, whose denominator den(0)^2 is not 0.
            n, den = b.num, b.den
            slope = n.derivative()(0) * den(0) - n(0) * den.derivative()(0)
            assert item.passed == (slope == 0)


class TestSingularProbe:
    def test_star_prefactor_levels_off(self, path2_cf):
        gs = green_series(path2_cf, 200)
        inv = invariants(builtin_cell("path2"), path2_cf)
        points = [Fraction(1, 2), Fraction(9, 10)]
        rows = singular_prefactor_probe(gs, inv, points)
        assert [float(r.z) for r in rows] == [0.5, 0.9]
        # exact prefactor for the star is (1+z)^(-1/2)
        for row in rows:
            expected = (1 + float(row.z)) ** -0.5
            assert row.scaled == pytest.approx(expected, rel=1e-3)
        assert rows[0].scaled == pytest.approx(0.8165, abs=5e-4)
        assert rows[1].scaled == pytest.approx(0.7255, abs=5e-4)

    def test_partial_sum_is_the_exact_truncated_sum(self, diamond_cf):
        gs = green_series(diamond_cf, 120)
        inv = invariants(builtin_cell("diamond"), diamond_cf)
        points = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)]
        for row in singular_prefactor_probe(gs, inv, points):
            partial = Fraction(0)
            for c in reversed(gs.coefficients()):
                partial = partial * row.z + c
            assert row.partial_sum == partial

    def test_point_too_close_for_order(self, path2_cf):
        gs = green_series(path2_cf, 200)
        inv = invariants(builtin_cell("path2"), path2_cf)
        with pytest.raises(KernelError):
            singular_prefactor_probe(gs, inv, [Fraction(99, 100)])

    def test_empty_points(self, path2_cf):
        gs = green_series(path2_cf, 50)
        inv = invariants(builtin_cell("path2"), path2_cf)
        assert singular_prefactor_probe(gs, inv, []) == []
