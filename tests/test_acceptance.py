"""Acceptance gate: one test per shipped guarantee, one summary line each.

Every test records a PASS/FAIL line via the record_acceptance fixture; the
lines are printed together at the end of the run.  Tolerances and time
budgets are asserted exactly as stated, never loosened.
"""

import time
from fractions import Fraction

from cellgreen import (
    blowup,
    builtin_cell,
    cell_functions,
    classify,
    exact_return_probs,
    green_series,
    harmonic_function,
    invariants,
    monte_carlo,
    sufficient_approximant,
)
from cellgreen.algebra import Poly, RatFunc
from cellgreen.algebra.roots import roots_equal
from cellgreen.cells import cell_to_text
from cellgreen.greenkernel import spectral_property_report
from cellgreen.iteration import functional_residual
from routes import PowerSeries, grid_expansion, log_ratio, star_series


def P(*coeffs):
    return Poly(coeffs)


def test_ac01_diamond_functions_exact(record_acceptance):
    g = builtin_cell("diamond")
    started = time.perf_counter()
    cf = cell_functions(g)
    elapsed = time.perf_counter() - started

    f_expected = RatFunc(P(9, 0, -6), P(9, 0, -9, 0, 1))
    d_expected = RatFunc(P(0, 0, 0, 0, 1), P(9, 0, -9, 0, 1))
    ok = cf.f == f_expected and cf.d == d_expected and elapsed < 1.0
    record_acceptance(
        "AC1",
        ok,
        f"diamond f=-3(2z^2-3)/(z^4-9z^2+9), d=z^4/(z^4-9z^2+9) in {elapsed:.3f}s",
    )
    assert cf.f == f_expected
    assert cf.d == d_expected
    assert elapsed < 1.0


def test_ac02_diamond_cell_series(record_acceptance, cell_green_series):
    g = builtin_cell("diamond")
    started = time.perf_counter()
    series = cell_green_series(g, 101)
    elapsed = time.perf_counter() - started

    expected = (
        Fraction(1), 0, Fraction(1, 3), 0, Fraction(2, 9),
        0, Fraction(5, 27), 0, Fraction(14, 81),
    )
    ok = series.coeffs[:9] == expected and elapsed < 1.0
    record_acceptance(
        "AC2", ok, f"first nine cell coefficients end 14/81 in {elapsed:.3f}s"
    )
    assert series.coeffs[:9] == expected
    assert elapsed < 1.0


def test_ac03_diamond_invariants(record_acceptance):
    inv = invariants(builtin_cell("diamond"))
    eta = inv.eta
    expected = -log_ratio(3, 18)
    deviation = abs(float(eta) - (-0.3800))
    ok = (
        inv.tau == 18
        and inv.alpha == 3
        and eta.width <= Fraction(1, 10**10)
        and eta.overlaps(expected)
        and deviation <= 1e-4
        and eta.overlaps(inv.eta_alt)
    )
    record_acceptance(
        "AC3",
        ok,
        f"tau=18 alpha=3, eta={float(eta):.12f} bracket width {float(eta.width):.2e}",
    )
    assert inv.tau == 18
    assert inv.alpha == 3
    assert eta.width <= Fraction(1, 10**10)
    assert eta.overlaps(expected)
    assert deviation <= 1e-4
    assert eta.overlaps(inv.eta_alt)


def test_ac04_path_star_closed_form(record_acceptance):
    cf = cell_functions(builtin_cell("path2"))
    gs = green_series(cf, 100)
    closed = star_series(101)
    residual = functional_residual(gs)
    ok = PowerSeries(gs.coefficients()) == closed and not any(residual)
    record_acceptance(
        "AC4", ok, "two-edge path series equals 1/sqrt(1-z^2) through z^100"
    )
    assert PowerSeries(gs.coefficients()) == closed
    assert residual == [0] * 101


def test_ac05_oracle_agreement(record_acceptance, sweep):
    mismatches = [
        r.cell.name or cell_to_text(r.cell)
        for r in sweep.records
        if not r.oracle_match
    ]

    g = builtin_cell("sierpinski")
    a = sufficient_approximant(g, 20)
    n_cap = min(20, a.safe_horizon)
    rp = exact_return_probs(a, n_cap)
    gs = green_series(cell_functions(g), n_cap)
    sierpinski_ok = rp.probs == gs.coefficients()

    ok = not mismatches and sierpinski_ok and sweep.oracle_seconds < 600.0
    record_acceptance(
        "AC5",
        ok,
        f"{len(sweep.records)} cells + sierpinski vs walk oracle "
        f"in {sweep.oracle_seconds:.1f}s",
    )
    assert mismatches == []
    assert sierpinski_ok
    assert sweep.oracle_seconds < 600.0


def test_ac06_alpha_mu_inequality(record_acceptance, sweep):
    bad = [
        r
        for r in sweep.records
        if not (
            r.inv.alpha <= r.inv.mu
            and (r.inv.alpha == r.inv.mu) == r.report.is_path
        )
    ]
    paths = sum(1 for r in sweep.records if r.report.is_path)
    ok = not bad
    record_acceptance(
        "AC6",
        ok,
        f"alpha <= mu on {len(sweep.records)} cells, equality on the {paths} paths",
    )
    assert bad == []


def test_ac07_eta_lower_bound(record_acceptance, sweep):
    half = Fraction(-1, 2)
    bad = []
    for r in sweep.records:
        if r.report.is_path:
            if half not in r.inv.eta or r.inv.alpha != r.inv.mu:
                bad.append(r)
        elif not r.inv.eta.low > half:
            bad.append(r)
    ok = not bad
    record_acceptance(
        "AC7", ok, "eta >= -1/2 everywhere, equality exactly on paths"
    )
    assert bad == []


def test_ac08_spectral_lemma(record_acceptance, sweep, builtin_functions):
    bad = [r for r in sweep.records if not r.spectral.all_passed]
    # The certified expansion item agrees with the sampled reference.
    off_reference = [
        r
        for r in sweep.records
        if r.spectral.items[3].passed != grid_expansion(r.cf)
    ]
    named_ok = True
    for name in ("diamond", "path2", "sierpinski"):
        cf = builtin_functions[name]
        report = spectral_property_report(cf)
        named_ok = named_ok and report.all_passed
        named_ok = named_ok and roots_equal(cf.rho_f, cf.rho_d)
    ok = not bad and not off_reference and named_ok
    record_acceptance(
        "AC8",
        ok,
        f"five spectral checks on {len(sweep.records)} cells plus three "
        "named cells, shared radius decided exactly, expansion equal to "
        "the grid reference",
    )
    assert bad == []
    assert off_reference == []
    assert named_ok


def test_ac09_harmonic_alpha(record_acceptance, sweep):
    bad = [r for r in sweep.records if r.harmonic_alpha != r.inv.alpha]

    path_ok = True
    for r in sweep.records:
        if not r.report.is_path:
            continue
        g = r.cell
        h = harmonic_function(g)
        span = g.distance(1, 0)
        for v in range(g.n):
            if h.value(v) != Fraction(g.distance(1, v), span):
                path_ok = False
    ok = not bad and path_ok
    record_acceptance(
        "AC9", ok, "harmonic route reproduces alpha; path profiles are linear"
    )
    assert bad == []
    assert path_ok


def test_ac10_determinant_identity(record_acceptance, sweep):
    bad = [r for r in sweep.records if not r.det_equal]
    ok = not bad
    record_acceptance(
        "AC10",
        ok,
        f"det(I-zPf) = det(I-zPd) on all {len(sweep.records)} cells",
    )
    assert bad == []


def test_ac11_classification(record_acceptance, sweep):
    bad = []
    for r in sweep.records:
        if r.report.is_path:
            if r.verdict.outcome != "AlgebraicStar":
                bad.append(r)
        else:
            if r.verdict.outcome != "DifferentiallyTranscendental":
                bad.append(r)
            elif not (r.verdict.hypotheses and r.verdict.hypotheses.all_passed):
                bad.append(r)

    v3 = classify(builtin_cell("sierpinski"))
    sierpinski_ok = (
        v3.outcome == "ConjecturedTranscendental" and v3.cell_report.theta == 3
    )
    ok = not bad and sierpinski_ok
    record_acceptance(
        "AC11",
        ok,
        "paths algebraic, other two-boundary cells transcendental with "
        "hypotheses verified, three-boundary case conjectural",
    )
    assert bad == []
    assert sierpinski_ok


def test_ac12_monte_carlo(record_acceptance):
    a = blowup(builtin_cell("diamond"), 2)
    first = monte_carlo(a, 4, 10**6, seed=20260819, workers=4)
    second = monte_carlo(a, 4, 10**6, seed=20260819, workers=4)
    exact = Fraction(2, 9)
    deviation = abs(float(first.estimate) - float(exact))
    ok = first == second and deviation <= 4 * first.std_err
    record_acceptance(
        "AC12",
        ok,
        f"10^6 trials reproduce bit for bit; estimate off by "
        f"{deviation / first.std_err:.2f} sigma",
    )
    assert first == second
    assert first.hits == second.hits
    assert deviation <= 4 * first.std_err
