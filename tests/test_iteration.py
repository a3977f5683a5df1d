"""Infinite-graph series via the product of rescaled return functions."""

import math
from fractions import Fraction

import pytest

from cellgreen import KernelError, builtin_cell, cell_functions, green_series, invariants
from cellgreen.iteration import (
    functional_residual,
    green_series_recursion,
    iteration_hypotheses,
    singular_prefactor_probe,
    transcendence_hypotheses,
)
from cellgreen.algebra import Poly, RatFunc, log_ratio
from cellgreen.classify import star_series


@pytest.fixture(scope="module")
def diamond_cf():
    return cell_functions(builtin_cell("diamond"))


@pytest.fixture(scope="module")
def path2_cf():
    return cell_functions(builtin_cell("path2"))


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
        assert long.series.truncate(10) == short.series

    def test_recursion_route_agrees(self):
        for name in ("diamond", "path2", "path3", "sierpinski", "theta4"):
            cf = cell_functions(builtin_cell(name))
            product = green_series(cf, 20)
            direct = green_series_recursion(cf, 20)
            assert product.series == direct

    def test_functional_residual_vanishes(self):
        for name in ("diamond", "path2", "sierpinski"):
            cf = cell_functions(builtin_cell(name))
            gs = green_series(cf, 40)
            assert functional_residual(cf, gs).is_zero

    def test_star_closed_form(self, path2_cf):
        gs = green_series(path2_cf, 100)
        assert gs.series == star_series(101)
        for m in (0, 1, 2, 6, 50):
            assert gs.coefficient(2 * m) == Fraction(
                math.comb(2 * m, m), 4**m
            )
        assert gs.coefficient(12) == Fraction(231, 1024)


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
        rep = transcendence_hypotheses(diamond_cf)
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

    def test_point_too_close_for_order(self, path2_cf):
        gs = green_series(path2_cf, 200)
        inv = invariants(builtin_cell("path2"), path2_cf)
        with pytest.raises(KernelError):
            singular_prefactor_probe(gs, inv, [Fraction(99, 100)])

    def test_empty_points(self, path2_cf):
        gs = green_series(path2_cf, 50)
        inv = invariants(builtin_cell("path2"), path2_cf)
        assert singular_prefactor_probe(gs, inv, []) == []
