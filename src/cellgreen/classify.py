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

from .algebra.series import schoolbook
from .blowup import DEFAULT_EDGE_BUDGET, exact_return_probs, sufficient_approximant
from .cells import CellGraph, CellReport, validate_cell
from .greenkernel import (
    CellFunctions,
    CheckItem,
    KernelError,
    PropertyReport,
    cell_functions,
    spectral_property_report,
)
from .harmonic import alpha_from_harmonic, harmonic_function, verify_alpha_mu
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

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "theorem_basis": self.theorem_basis,
            "cell_report": self.cell_report.to_json(),
            "invariants": None if self.invariants is None else self.invariants.to_json(),
            "hypotheses": None if self.hypotheses is None else self.hypotheses.to_json(),
            "bipartite_branch": self.bipartite_branch,
            "closed_form": self.closed_form,
            "closed_form_verified_order": self.closed_form_verified_order,
        }


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
    as ``cf``, and the verdict reuses their validation report.
    """
    if series_order < 0:
        raise ValueError(f"series order must be nonnegative, got {series_order}")
    report = validate_cell(g) if cf is None else cf.report
    if not report.valid:
        return Verdict(
            outcome="Invalid",
            theorem_basis=_BASIS["Invalid"],
            cell_report=report,
        )
    if cf is None:
        cf = cell_functions(g, report=report)
    inv = invariants(g, cf)
    hyp = iteration_hypotheses(cf.d)
    if g.theta == 2 and report.is_path:
        gs = green_series(cf, series_order)
        _verify_star_form(gs)
        return Verdict(
            outcome="AlgebraicStar",
            theorem_basis=_BASIS["AlgebraicStar"],
            cell_report=report,
            invariants=inv,
            hypotheses=hyp,
            closed_form="1/sqrt(1-z^2)",
            closed_form_verified_order=gs.order,
        )
    if g.theta == 2:
        if not hyp.all_passed:
            raise KernelError(
                "valid non-path cell failed the dichotomy hypotheses"
            )
        return Verdict(
            outcome="DifferentiallyTranscendental",
            theorem_basis=_BASIS["DifferentiallyTranscendental"],
            cell_report=report,
            invariants=inv,
            hypotheses=hyp,
            bipartite_branch="bipartite" if report.bipartite else "non-bipartite",
        )
    return Verdict(
        outcome="ConjecturedTranscendental",
        theorem_basis=_BASIS["ConjecturedTranscendental"],
        cell_report=report,
        invariants=inv,
        hypotheses=hyp,
        bipartite_branch="bipartite" if report.bipartite else "non-bipartite",
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
    items: list[CheckItem] = []
    report = validate_cell(g)
    items.append(
        CheckItem(
            "valid_cell",
            report.valid,
            "; ".join(report.violations) if report.violations else "all axioms hold",
        )
    )
    if not report.valid:
        return PropertyReport(tuple(items))

    cf = cell_functions(g, report=report)
    verdict = classify(g, cf=cf)
    inv = verdict.invariants
    items.extend(spectral_property_report(cf).items)

    det_ok = cf.det_f == cf.det_d
    items.append(
        CheckItem(
            "determinant_identity",
            det_ok,
            "det(I-zP_f) = det(I-zP_d)" if det_ok else "determinants differ",
        )
    )

    if g.theta == 2:
        ha = alpha_from_harmonic(harmonic_function(g, validate=False))
        am = verify_alpha_mu(report, ha)
        items.append(
            CheckItem(
                "alpha_mu",
                am.consistent,
                f"alpha={am.alpha} mu={am.mu} "
                + ("equality on a path" if am.is_path else "strict"),
            )
        )
        cross = ha == inv.alpha
        items.append(
            CheckItem(
                "harmonic_alpha",
                cross,
                f"1/(1-H(w)) = {ha} vs f(1) = {inv.alpha}",
            )
        )
        if report.is_path:
            eta_ok = (
                inv.alpha == inv.mu
                and inv.eta.low <= Fraction(-1, 2) <= inv.eta.high
            )
            detail = "path: alpha = mu and eta bracket straddles -1/2"
        else:
            eta_ok = inv.eta.low > Fraction(-1, 2) and inv.eta.high < 0
            detail = f"-1/2 < eta < 0: {inv.eta.approx_str()}"
        items.append(CheckItem("eta_range", eta_ok, detail))
    else:
        items.append(
            CheckItem(
                "alpha_mu",
                True,
                f"alpha={inv.alpha} mu={inv.mu} (recorded, not asserted, "
                "for more than two boundary vertices)",
            )
        )

    approx = sufficient_approximant(g, max_steps, edge_budget=edge_budget)
    n_cap = min(max_steps, approx.safe_horizon)
    # One expansion serves every series check; each reads its own prefix.
    gs = green_series(cf, max(n_cap, RESIDUAL_ORDER))
    probs = exact_return_probs(approx, n_cap).probs
    oracle_ok = all(
        gs.coefficient(n) == probs[n] for n in range(n_cap + 1)
    )
    items.append(
        CheckItem(
            "oracle_equivalence",
            oracle_ok,
            f"series = walk probabilities for n <= {n_cap} at level {approx.level}"
            if oracle_ok
            else "series and walk probabilities disagree",
        )
    )

    # G(0) = 1 with a zero residual fixes G (see functional_residual).
    residual_ok = gs.ints[0] == 1 and not any(
        functional_residual(gs.truncate(RESIDUAL_ORDER))
    )
    items.append(
        CheckItem(
            "functional_residual",
            residual_ok,
            f"G(0) = 1 and G - f*(G over d) vanishes through z^{RESIDUAL_ORDER}",
        )
    )

    expected = (
        "AlgebraicStar"
        if g.theta == 2 and report.is_path
        else "DifferentiallyTranscendental"
        if g.theta == 2
        else "ConjecturedTranscendental"
    )
    items.append(
        CheckItem(
            "classification",
            verdict.outcome == expected,
            f"outcome {verdict.outcome}",
        )
    )
    return PropertyReport(tuple(items))
