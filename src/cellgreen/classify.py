"""Classification of the limit graph's Green's function, plus the full
property suite that backs the verdict with machine-checked evidence.

For two-boundary cells the dichotomy is sharp: a path cell generates a
star of half-lines whose return series is the algebraic function
1/sqrt(1 - z^2); every other cell yields a return series satisfying no
polynomial differential equation, because it solves G = f (G over d) with
an inner function d that fixes 0 with multiplier 0, and no iterate of such
a d is the identity.  Cells with three or more boundary vertices are
reported as conjectured: the triangle-gasket case has a published proof,
the general case does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra.poly import schoolbook
from .blowup import DEFAULT_EDGE_BUDGET, exact_return_probs, sufficient_approximant
from .cells import CellGraph, CellReport
from .greenkernel import (
    CellFunctions,
    KernelError,
    PropertyReport,
    cell_functions,
    check,
    spectral_property_report,
)
from .harmonic import AlphaMuReport, alpha_from_harmonic, harmonic_function
from .iteration import (
    CellInvariants,
    GreenSeries,
    functional_residual,
    green_series,
    invariants,
    iteration_hypotheses,
)

OUTCOMES = (
    "AlgebraicStar",
    "DifferentiallyTranscendental",
    "ConjecturedTranscendental",
    "Invalid",
)

_BASIS = {
    "AlgebraicStar": (
        "path cells generate a star of half-lines; its return series is "
        "1/sqrt(1-z^2), an algebraic function"
    ),
    "DifferentiallyTranscendental": (
        "the return series solves G = f*(G over d) where d fixes 0 with "
        "multiplier 0 and no iterate of d is the identity; any such series "
        "that is not rational satisfies no algebraic differential equation"
    ),
    "ConjecturedTranscendental": (
        "no dichotomy theorem covers three or more boundary vertices; "
        "transcendence is conjectured (and proven in prior work for the "
        "triangle gasket)"
    ),
    "Invalid": "the graph fails the cell symmetry axioms",
}

# verify_cell checks G - f (G over d) = 0 through this power of z.
RESIDUAL_ORDER = 40


@dataclass(frozen=True)
class Verdict:
    outcome: str
    theorem_basis: str
    cell_report: CellReport
    invariants: CellInvariants | None = None
    hypotheses: PropertyReport | None = None
    bipartite_branch: str | None = None
    closed_form: str | None = None
    closed_form_verified_order: int | None = None


def _verify_star_form(gs: GreenSeries) -> None:
    """Check G = 1/sqrt(1 - z^2) through z^order, in w = z / 2.

    A path cell's degrees are 1 and 2, so the series is G(2 w) = B(w) =
    1/sqrt(1 - 4 w^2), whose coefficient 2m is C(2m, m) and whose odd
    coefficients vanish.
    """
    b = gs.ints
    closed = gs.scale == 2 and all(
        x == (0 if n % 2 else math.comb(n, n // 2)) for n, x in enumerate(b)
    )
    if not closed:
        raise KernelError("path cell series deviates from 1/sqrt(1-z^2)")
    # Independent algebraicity witness: (1 - 4 w^2) B^2 = 1 as truncated series.
    sq = schoolbook(b, b, len(b))
    one = [x - 4 * sq[n - 2] if n >= 2 else x for n, x in enumerate(sq)]
    if one != [1] + [0] * gs.order:
        raise KernelError("algebraic identity (1-z^2) G^2 = 1 failed")


def classify(
    g: CellGraph,
    series_order: int = 50,
    cf: CellFunctions | None = None,
) -> Verdict:
    """Total, deterministic verdict with verified evidence attached.

    A path cell's series is checked against its closed form through
    z^series_order.  A caller that holds the cell's functions passes them
    as ``cf``.  The verdict reads the cell's own report, ``g.report``, so
    the cell is validated once however many callers ask.
    """
    if series_order < 0:
        raise ValueError(f"series order must be nonnegative, got {series_order}")
    report = g.report
    if not report.valid:
        return Verdict(
            outcome="Invalid",
            theorem_basis=_BASIS["Invalid"],
            cell_report=report,
        )
    if cf is None:
        cf = cell_functions(g)
    inv = invariants(cf)
    hyp = iteration_hypotheses(cf.d)
    star = report.is_path
    if star:
        _verify_star_form(green_series(cf, series_order))
        outcome = "AlgebraicStar"
    elif g.theta == 2:
        if not hyp.all_passed:
            raise KernelError("valid non-path cell failed the dichotomy hypotheses")
        outcome = "DifferentiallyTranscendental"
    else:
        outcome = "ConjecturedTranscendental"
    return Verdict(
        outcome=outcome,
        theorem_basis=_BASIS[outcome],
        cell_report=report,
        invariants=inv,
        hypotheses=hyp,
        bipartite_branch=(
            None if star else "bipartite" if report.bipartite else "non-bipartite"
        ),
        closed_form="1/sqrt(1-z^2)" if star else None,
        closed_form_verified_order=series_order if star else None,
    )


# -- full property suite ----------------------------------------------------------


def verify_cell(
    g: CellGraph,
    max_steps: int = 12,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
) -> PropertyReport:
    """Everything checkable about one cell, as a pass/fail item list.

    Exact, with the oracle item limited to walk lengths
    min(max_steps, safe horizon).
    """
    report = g.report
    violations = "; ".join(report.violations)
    items = [check("valid_cell", report.valid, "all axioms hold", violations)]
    if not report.valid:
        return PropertyReport(tuple(items))

    cf = cell_functions(g)
    verdict = classify(g, cf=cf)
    inv = verdict.invariants
    items.extend(spectral_property_report(cf).items)
    items.append(check(
        "determinant_identity", cf.det_f == cf.det_d,
        "det(I-zP_f) = det(I-zP_d)", "determinants differ",
    ))

    if g.theta == 2:
        ha = alpha_from_harmonic(harmonic_function(g))
        consistent = AlphaMuReport(ha, report.mu, report.is_path).consistent
        kind = "equality on a path" if report.is_path else "strict"
        items.append(check("alpha_mu", consistent, f"alpha={ha} mu={report.mu} {kind}"))
        cross = f"1/(1-H(w)) = {ha} vs f(1) = {inv.alpha}"
        items.append(check("harmonic_alpha", ha == inv.alpha, cross))
        if report.is_path:
            eta_ok = (
                inv.alpha == inv.mu
                and inv.eta.low <= Fraction(-1, 2) <= inv.eta.high
            )
            detail = "path: alpha = mu and eta bracket straddles -1/2"
        else:
            eta_ok = inv.eta.low > Fraction(-1, 2) and inv.eta.high < 0
            detail = f"-1/2 < eta < 0: {inv.eta.approx_str()}"
        items.append(check("eta_range", eta_ok, detail))
    else:
        items.append(check(
            "alpha_mu", True,
            f"alpha={inv.alpha} mu={inv.mu} (recorded, not asserted, "
            "for more than two boundary vertices)",
        ))

    approx = sufficient_approximant(g, max_steps, edge_budget=edge_budget)
    n_cap = min(max_steps, approx.safe_horizon)
    # One expansion serves every series check; each reads its own prefix.
    gs = green_series(cf, max(n_cap, RESIDUAL_ORDER))
    probs = exact_return_probs(approx, n_cap).probs
    items.append(check(
        "oracle_equivalence",
        all(gs.coefficient(n) == probs[n] for n in range(n_cap + 1)),
        f"series = walk probabilities for n <= {n_cap} at level {approx.level}",
        "series and walk probabilities disagree",
    ))

    # G(0) = 1 with a zero residual fixes G (see functional_residual).
    residual_ok = gs.ints[0] == 1 and not any(
        functional_residual(gs.truncate(RESIDUAL_ORDER))
    )
    items.append(check(
        "functional_residual", residual_ok,
        f"G(0) = 1 and G - f*(G over d) vanishes through z^{RESIDUAL_ORDER}",
    ))

    expected = (
        "AlgebraicStar"
        if report.is_path
        else "DifferentiallyTranscendental"
        if g.theta == 2
        else "ConjecturedTranscendental"
    )
    outcome = verdict.outcome
    items.append(check("classification", outcome == expected, f"outcome {outcome}"))
    return PropertyReport(tuple(items))
