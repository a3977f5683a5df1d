"""Finite-graph walk kernels: f, d, r, radii, and the spectral checks."""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import pytest

from cellgreen import (
    KernelError,
    builtin_cell,
    builtin_names,
    cell_functions,
    enumerate_cells,
    invariants,
)
from cellgreen.algebra import (
    Poly,
    RatFunc,
    resolvent_row,
    series_from_ratfunc,
    smallest_positive_root,
    solve_linear,
)
from cellgreen.cells import transition_matrix
from cellgreen.cli import _pole_json
from cellgreen.greenkernel import (
    Matrix,
    build_pd,
    build_pf,
    radius,
    residue_scale,
    spectral_property_report,
)
from routes import (
    PowerSeries,
    _cofactor,
    _resolvent_matrix,
    det_linear,
    green_entry,
    grid_expansion,
    resolvent_det,
    rf_add,
    rf_div,
    rf_mul,
    rf_sub,
)


def P(*coeffs) -> Poly:
    return Poly([Fraction(c) for c in coeffs])


# -- finite-cell coefficient asymptotics: a route only these tests use ---------


@dataclass(frozen=True)
class AsymptoticReport:
    phi: Fraction
    bipartite: bool
    odd_coefficients_zero: bool | None
    even_relative_errors: tuple[Fraction, ...]
    errors_nonincreasing: bool
    coefficients: tuple[Fraction, ...]


def _stationary(t: Matrix) -> list[Fraction]:
    """Stationary row vector of an irreducible stochastic matrix, exactly."""
    n = len(t)
    rows = []
    for j in range(n - 1):
        rows.append(
            [t[i][j] - (1 if i == j else 0) for i in range(n)]
        )
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    return solve_linear(rows, rhs)


def asymptotic_check(t: Matrix, i: int, n_max: int) -> AsymptoticReport:
    """Convergence of walk return coefficients toward their stationary mass.

    The n-step return coefficient at state i tends to the stationary weight
    pi_i (doubled, over even n, when the chain is two-periodic).  The report
    records the exact relative errors on even n and whether they never
    increase.
    """
    n = len(t)
    for row in t:
        if sum(row, Fraction(0)) != 1:
            raise ValueError("rows must sum to 1")
    coeffs = series_from_ratfunc(green_entry(t, i, i), n_max + 1)

    color = [-1] * n
    color[0] = 0
    queue = [0]
    for v in queue:
        for u in range(n):
            if t[v][u] == 0:
                continue
            if color[u] < 0:
                color[u] = 1 - color[v]
                queue.append(u)
    bipartite = all(
        t[v][u] == 0 or color[v] != color[u]
        for v in range(n)
        for u in range(n)
    )

    pi = _stationary(t)
    phi = 2 * pi[i] if bipartite else pi[i]

    odd_zero = None
    if bipartite:
        odd_zero = all(coeffs[k] == 0 for k in range(1, n_max + 1, 2))

    errors = tuple(
        abs(coeffs[k] / phi - 1) for k in range(0, n_max + 1, 2)
    )
    nonincreasing = all(
        errors[m + 1] <= errors[m] for m in range(len(errors) - 1)
    )
    return AsymptoticReport(
        phi=phi,
        bipartite=bipartite,
        odd_coefficients_zero=odd_zero,
        even_relative_errors=errors,
        errors_nonincreasing=nonincreasing,
        coefficients=tuple(coeffs),
    )


def entry_by_elimination(t: Matrix, i: int, j: int, z: Fraction) -> Fraction:
    """Entry [i, j] of (I - zT)^{-1} at one rational z: solve (I - zT) x = e_j."""
    n = len(t)
    rows = [
        [(1 if r == c else 0) - z * t[r][c] for c in range(n)] for r in range(n)
    ]
    rhs = [Fraction(1 if r == j else 0) for r in range(n)]
    return solve_linear(rows, rhs)[i]


def arithmetic_route(g) -> tuple[RatFunc, RatFunc]:
    """d and r of a cell by RatFunc arithmetic, normalising at each step.

    d adds the normalised (0, j) entries of P_d's resolvent one at a time,
    and r is 1 - 1/f; cell_functions instead sums the cofactors over one
    denominator and writes r over f's numerator.
    """
    pd = build_pd(g)
    det_d = resolvent_det(pd)
    d = RatFunc(Poly([0]))
    for j in range(1, g.theta):
        d = rf_add(d, green_entry(pd, 0, j, det_d))
    f = green_entry(build_pf(g), 0, 0)
    return d, rf_sub(1, rf_div(1, f))


@pytest.fixture(scope="module")
def diamond_cf():
    return cell_functions(builtin_cell("diamond"))


@pytest.fixture(scope="module")
def path2_cf():
    return cell_functions(builtin_cell("path2"))


class TestModifiedMatrices:
    def test_diamond_pf_blocks_interior_to_far_boundary(self):
        pf = build_pf(builtin_cell("diamond"))
        q = Fraction(1, 3)
        h = Fraction(1, 2)
        assert pf[3] == [0, 0, 0, 0, q, q]
        assert pf[2] == [q, 0, 0, 0, q, q]
        assert pf[4] == [0, 0, h, h, 0, 0]
        assert pf[0] == [0, 0, 1, 0, 0, 0]
        assert pf[1] == [0, 0, 0, 1, 0, 0]

    def test_diamond_pd_absorbs_far_boundary(self):
        pd = build_pd(builtin_cell("diamond"))
        assert pd[1] == [0, 0, 0, 0, 0, 0]
        assert pd[0] == [0, 0, 1, 0, 0, 0]
        assert pd[3] == [0, Fraction(1, 3), 0, 0, Fraction(1, 3), Fraction(1, 3)]

    def test_determinants_agree_and_match_hand_value(self):
        g = builtin_cell("diamond")
        det_f, det_d = resolvent_det(build_pf(g)), resolvent_det(build_pd(g))
        assert det_f == det_d
        assert det_f == P(1, 0, -1, 0, Fraction(1, 9))

    def test_cell_functions_carry_the_determinants(self, diamond_cf):
        g = builtin_cell("diamond")
        det_f, det_d = resolvent_det(build_pf(g)), resolvent_det(build_pd(g))
        assert diamond_cf.det_f == det_f
        assert diamond_cf.det_d == det_d


class TestResolventRow:
    def test_matches_the_cofactor_route_on_every_cell(self, enumerated_cells):
        # The determinant and the adjugate entries that cell_functions reads
        # equal one det_linear per determinant and per cofactor, exactly,
        # also on the cells whose resolvent is singular at an integer point
        # z in 1..n, where det_linear evaluates and resolvent_row does not.
        singular = 0
        for g in [*enumerated_cells, *map(builtin_cell, builtin_names())]:
            at_integer = False
            for t, cols in ((build_pf(g), [0]), (build_pd(g), range(1, g.theta))):
                det, row = resolvent_row(t, cols)
                m = _resolvent_matrix(t)
                assert det == det_linear(m)
                assert row == [_cofactor(m, 0, j) for j in cols]
                at_integer |= any(det(z) == 0 for z in range(1, g.n + 1))
            singular += at_integer
        assert singular == 32


class TestGreenEntry:
    def test_single_state_chain(self):
        t = [[Fraction(0)]]
        assert green_entry(t, 0, 0) == RatFunc(P(1), P(1))

    def test_given_denominator_gives_the_same_entry(self):
        t = build_pd(builtin_cell("sierpinski"))
        den = resolvent_det(t)
        for j in range(3):
            assert green_entry(t, 0, j, den) == green_entry(t, 0, j)

    def test_diamond_origin_entry(self):
        t = transition_matrix(builtin_cell("diamond"))
        got = green_entry(t, 0, 0)
        assert got == RatFunc(P(9, 0, -9, 0, 1), P(9, 0, -12, 0, 3))

    def test_path2_origin_entry(self):
        t = transition_matrix(builtin_cell("path2"))
        assert green_entry(t, 0, 0) == RatFunc(P(2, 0, -1), P(2, 0, -2))

    def test_elimination_route_agrees_on_every_small_cell(self, enumerated_cells):
        # Both routes give a rational function whose numerator and
        # denominator have degree at most n.  Two such functions are equal
        # iff a polynomial of degree at most 2n vanishes at 2n + 1 distinct
        # points.  I - zT is invertible for z in (0, 1), since the rows of
        # T sum to at most 1.
        for g in enumerated_cells:
            n = g.n
            points = [Fraction(k, 2 * n + 2) for k in range(1, 2 * n + 2)]
            for t, j in ((build_pf(g), 0), (build_pd(g), 1)):
                entry = green_entry(t, 0, j)
                assert entry.num.degree <= n and entry.den.degree <= n
                for z in points:
                    den = entry.den(z)
                    assert den != 0
                    assert entry.num(z) / den == entry_by_elimination(t, 0, j, z)

    def test_offdiagonal_entry_transpose_convention(self):
        # first-step decomposition: G(v1, w | z) = z/deg(v1) * sum over
        # neighbors of the w-column entries, checked on the path cell
        t = transition_matrix(builtin_cell("path2"))
        g01 = green_entry(t, 0, 1)
        g21 = green_entry(t, 2, 1)
        z = RatFunc(P(0, 1), P(1))
        assert g01 == rf_mul(z, g21)


class TestCellFunctions:
    def test_diamond_f(self, diamond_cf):
        assert diamond_cf.f == RatFunc(P(9, 0, -6), P(9, 0, -9, 0, 1))

    def test_diamond_d(self, diamond_cf):
        assert diamond_cf.d == RatFunc(P(0, 0, 0, 0, 1), P(9, 0, -9, 0, 1))

    def test_diamond_r(self, diamond_cf):
        assert diamond_cf.r == RatFunc(P(0, 0, 3, 0, -1), P(9, 0, -6))
        one = RatFunc(P(1), P(1))
        assert diamond_cf.f == rf_div(one, rf_sub(one, diamond_cf.r))

    def test_path2_functions(self, path2_cf):
        assert path2_cf.f == RatFunc(P(2), P(2, 0, -1))
        assert path2_cf.d == RatFunc(P(0, 0, 1), P(2, 0, -1))
        assert path2_cf.r == RatFunc(P(0, 0, 1), P(2))

    def test_normalization_fixed_points(self, diamond_cf, path2_cf):
        for cf in (diamond_cf, path2_cf):
            assert cf.f(Fraction(0)) == 1
            assert cf.d(Fraction(0)) == 0
            assert cf.d(Fraction(1)) == 1
            assert cf.d.num.coefficient(1) == 0

    def test_diamond_series_prefixes(self, diamond_cf):
        f_ser = series_from_ratfunc(diamond_cf.f, 7)
        assert f_ser[:5] == (
            1, 0, Fraction(1, 3), 0, Fraction(2, 9)
        )
        d_ser = series_from_ratfunc(diamond_cf.d, 9)
        assert d_ser == (
            0, 0, 0, 0, Fraction(1, 9), 0, Fraction(1, 9), 0, Fraction(8, 81)
        )

    def test_compose_low_order(self, diamond_cf):
        # f is even and d has valuation 4, so the first correction enters
        # at z^8 through the squared term: f(d) = 1 + d^2/3 + ...
        f_ser = PowerSeries(series_from_ratfunc(diamond_cf.f, 9))
        d_ser = PowerSeries(series_from_ratfunc(diamond_cf.d, 9))
        composed = f_ser.compose(d_ser)
        assert composed.order == 9
        assert composed.coeffs == (
            1, 0, 0, 0, 0, 0, 0, 0, Fraction(1, 243)
        )

    def test_functions_match_the_arithmetic_route(self, builtin_cells):
        for g in [*enumerate_cells(2, 7), *builtin_cells.values()]:
            cf = cell_functions(g)
            d, r = arithmetic_route(g)
            assert cf.d == d and repr(cf.d) == repr(d)
            assert cf.r == r and repr(cf.r) == repr(r)

    def test_first_return_identity_on_every_cell(self, sweep, builtin_functions):
        # cell_functions builds r over f's coprime numerator and denominator,
        # so f = 1/(1 - r) holds by construction; it is asserted here, not
        # checked on every call.
        cfs = [rec.cf for rec in sweep.records] + list(builtin_functions.values())
        assert len(cfs) == 741
        for cf in cfs:
            assert rf_div(1, rf_sub(1, cf.r)) == cf.f

    def test_transition_function_needs_a_double_zero(self, diamond_cf):
        with pytest.raises(KernelError, match="second order"):
            dataclasses.replace(diamond_cf, d=RatFunc(Poly([0, 1])))
        with pytest.raises(KernelError, match="second order"):
            dataclasses.replace(diamond_cf, d=RatFunc(Poly([1]), Poly([0, 1])))
        square = RatFunc(Poly([0, 0, 1]))
        assert dataclasses.replace(diamond_cf, d=square).d == square

    def test_invalid_cell_rejected(self):
        bad = "vertices 4\nboundary 0 1\nedge 0 2\nedge 0 3\nedge 1 2\nedge 1 3\n"
        from cellgreen import CellError, parse_cell

        with pytest.raises(CellError):
            cell_functions(parse_cell(bad))


SLIVER = 2 + Fraction(1, 2**120)


def _pole_sum(p: Poly, e: int) -> RatFunc:
    """z^2 p(z) + e z^2/(3 - z), scaled so that it maps 1 to 1."""
    d = rf_add(RatFunc(P(0, 0, 1) * p), RatFunc(P(0, 0, e), P(3, -1)))
    return rf_mul(d, 1 / d(1))


class TestSpectralData:
    def test_diamond_shared_radius(self, diamond_cf):
        rho_f = diamond_cf.rho_f
        rho_d = diamond_cf.rho_d
        # least positive root of z^4 - 9 z^2 + 9; approx 2*sqrt(3)/(1+sqrt(5))
        assert float(rho_f) == pytest.approx(1.07046626931927, abs=1e-9)
        assert float(rho_d) == pytest.approx(float(rho_f), abs=1e-9)
        assert diamond_cf.rho_f.multiplicity == 1

    def test_shared_denominator_is_isolated_once(self, count_calls):
        calls = count_calls("cellgreen.algebra.roots", "smallest_positive_root")
        cf = cell_functions(builtin_cell("diamond"))
        assert cf.f.den == cf.d.den
        assert cf.rho_d is cf.rho_f
        # f only: d reuses f's pole, and r's is isolated by its readers.
        assert [args[0] for args in calls] == [cf.f.den]

    def test_distinct_denominators_are_isolated_apart(self, count_calls):
        calls = count_calls("cellgreen.algebra.roots", "smallest_positive_root")
        cf = cell_functions(builtin_cell("sierpinski"))
        assert cf.f.den != cf.d.den
        assert [args[0] for args in calls] == [cf.f.den, cf.d.den]
        assert cf.rho_d.defining == cf.d.den
        items = spectral_property_report(cf).items
        assert items[0].name == "shared_radius" and items[0].passed
        # The report isolates r's pole itself, for the radius gap.
        assert [args[0] for args in calls] == [cf.f.den, cf.d.den, cf.r.den]

    def test_shared_radius_fails_on_a_different_pole(self, diamond_cf, count_calls):
        # A rational pole inside f's bracket: the brackets overlap, so only
        # the exact comparison tells the two poles apart.
        rho = diamond_cf.rho_f
        other = smallest_positive_root(P(-rho.midpoint(), 1))
        assert max(rho.low, other.low) < min(rho.high, other.high)
        cf = dataclasses.replace(diamond_cf, rho_d=other)
        calls = count_calls("cellgreen.algebra.roots", "roots_equal")
        item = spectral_property_report(cf).items[0]
        assert item.name == "shared_radius"
        assert not item.passed
        assert item.detail == "f and d have different smallest positive poles"
        assert calls

    def test_path2_radius(self, path2_cf):
        assert float(path2_cf.rho_f) == pytest.approx(2 ** 0.5, abs=1e-9)
        assert radius(path2_cf.r) is None

    def test_property_report_passes_on_named_cells(self):
        for name in ("diamond", "path2", "path3", "sierpinski", "theta4"):
            cf = cell_functions(builtin_cell(name))
            report = spectral_property_report(cf)
            assert report.all_passed, (name, report.to_json())

    # Maps with a double zero at 0 and d(1) = 1 that do not expand on
    # (1, rho).  z^2 p(z) + e z^2/(3 - z), scaled to d(1) = 1, has a simple
    # pole at 3: with p = z - z^2 and e = 3 it keeps d > z and d' > 1 but
    # turns concave; with p = 4 + z - z^2 and e = 1 it keeps d > z but d'
    # dips below 1.  The sliver map turns concave, slows and falls from
    # about 4 to 0 within 2^-39 below its pole at 2 + 2^-120: all inside
    # the first bracket of that pole, where only the refinement of the
    # bracket sees it, and a grid cannot.
    NOT_EXPANDING = {
        "concave": _pole_sum(P(0, 1, -1), 3),
        "slow_slope": _pole_sum(P(4, 1, -1), 1),
        "double_pole": RatFunc(P(0, 0, 1), P(2, -1) * P(2, -1)),
        "sliver_below_pole": RatFunc(
            P(0, 0, 2, -1) * (SLIVER - 1), P(SLIVER, -1)
        ),
    }

    @pytest.mark.parametrize("name", sorted(NOT_EXPANDING))
    def test_expansion_certificate_rejects(self, name, diamond_cf):
        d = self.NOT_EXPANDING[name]
        assert d(1) == 1
        rho = radius(d)
        assert rho.multiplicity == (2 if name == "double_pole" else 1)
        cf = dataclasses.replace(diamond_cf, d=d, rho_d=rho)
        item = spectral_property_report(cf).items[3]
        assert item.name == "expansion_between_fixed_points"
        assert not item.passed
        assert item.detail == "expansion inequality not certified on (1, rho_d)"
        if name == "sliver_below_pole":
            assert rho.low < 2 and grid_expansion(cf)

    def test_double_pole_has_no_residue_scale(self):
        func = RatFunc(P(1), P(1, -2) * P(1, -2))
        rho = radius(func)
        assert rho.multiplicity == 2
        assert Fraction(1, 2) in rho
        assert residue_scale(func, rho) == (rho, None)
        assert _pole_json(func, rho)["residue_scale"] is None

    def test_simple_pole_scale_brackets_the_residue(self):
        # 1/((1-2z)(1-3z)) behaves like 3/(1 - 3z) near its pole 1/3.
        func = RatFunc(P(1), P(1, -2) * P(1, -3))
        rho = radius(func)
        assert rho.multiplicity == 1
        rho, kappa = residue_scale(func, rho)
        assert Fraction(1, 3) in rho
        assert 3 in kappa
        assert not kappa.contains_zero()

    def test_report_items_exact_names(self, diamond_cf):
        report = spectral_property_report(diamond_cf)
        assert [item.name for item in report.items] == [
            "shared_radius",
            "simple_poles",
            "radius_gap",
            "expansion_between_fixed_points",
            "first_pole",
        ]


class TestSeriesNonnegativity:
    def test_probability_coefficients_on_named_cells(self):
        for name in ("diamond", "path2", "path3", "sierpinski", "theta4"):
            cf = cell_functions(builtin_cell(name))
            f_ser = series_from_ratfunc(cf.f, 61)
            d_ser = series_from_ratfunc(cf.d, 61)
            assert all(c >= 0 for c in f_ser)
            assert all(c >= 0 for c in d_ser)
            assert sum(d_ser) <= 1
            assert cf.d(Fraction(1)) == 1
            assert cf.f(Fraction(1)) >= 1
            assert invariants(builtin_cell(name), cf).tau >= 2


class TestAsymptotics:
    def test_diamond_convergence_to_stationary_mass(self):
        t = transition_matrix(builtin_cell("diamond"))
        rep = asymptotic_check(t, 0, 40)
        assert rep.bipartite
        assert rep.phi == Fraction(1, 6)
        assert rep.coefficients[8] == Fraction(14, 81)
        assert rep.odd_coefficients_zero
        assert rep.errors_nonincreasing
        # geometric decay by a factor of 3 per even step after the start
        assert rep.even_relative_errors[1] == 1
        assert rep.even_relative_errors[2] == Fraction(1, 3)
        assert rep.even_relative_errors[3] == Fraction(1, 9)

    def test_path2_hits_stationary_mass_immediately(self):
        t = transition_matrix(builtin_cell("path2"))
        rep = asymptotic_check(t, 0, 10)
        assert rep.phi == Fraction(1, 2)
        assert rep.even_relative_errors[1:] == (0, 0, 0, 0, 0)
        assert rep.odd_coefficients_zero
        assert rep.errors_nonincreasing

    def test_nonstochastic_rows_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_check([[Fraction(1, 2)]], 0, 4)

    def test_sierpinski_not_bipartite(self):
        t = transition_matrix(builtin_cell("sierpinski"))
        rep = asymptotic_check(t, 0, 12)
        assert not rep.bipartite
        assert rep.odd_coefficients_zero is None


class TestCellGreenSeries:
    def test_diamond_walk_counts(self, cell_green_series):
        s = cell_green_series(builtin_cell("diamond"), 9)
        assert s.coeffs == (
            1, 0, Fraction(1, 3), 0, Fraction(2, 9), 0,
            Fraction(5, 27), 0, Fraction(14, 81),
        )

    def test_prefix_stability(self, cell_green_series):
        short = cell_green_series(builtin_cell("diamond"), 5)
        long = cell_green_series(builtin_cell("diamond"), 30)
        assert long.truncate(5) == short
