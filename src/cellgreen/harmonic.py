"""Hitting probabilities on cells and the return-scale identity.

H(v) is the probability that the walk from v reaches the origin before the
rest of the boundary.  It is the unique function with H = 1 at the origin,
H = 0 on the other boundary vertices, and the mean-value property at
interior vertices.  For two-boundary cells the origin has a single
neighbor w, and the number of returns to the origin is geometric with
parameter H(w), which gives alpha = 1/(1 - H(w)) independently of any
generating function computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import solve_linear
from .cells import CellError, CellGraph, CellReport, require_valid


@dataclass(frozen=True)
class HarmonicSolution:
    """Exact hitting probabilities, origin-first boundary conditions."""

    values: tuple[Fraction, ...]
    w: int | None

    def value(self, v: int) -> Fraction:
        return self.values[v]

    def to_json(self) -> dict:
        return {
            "values": [str(x) for x in self.values],
            "w": self.w,
        }


def harmonic_function(g: CellGraph, validate: bool = True) -> HarmonicSolution:
    """Solve the interior mean-value system exactly.

    Boundary conditions: 1 at vertex 0, 0 at vertices 1..theta-1.  The
    system is strictly diagonally dominant after elimination and connected
    cells make it nonsingular, so the exact solver cannot fail on valid
    input.
    """
    if validate:
        require_valid(g, check_automorphisms=False)
    interior = list(g.interior)
    index = {v: k for k, v in enumerate(interior)}
    rows = []
    rhs = []
    for v in interior:
        row = [Fraction(0)] * len(interior)
        row[index[v]] = Fraction(g.degree(v))
        b = Fraction(0)
        for u in g.neighbors(v):
            if u == 0:
                b += 1
            elif u < g.theta:
                pass
            else:
                row[index[u]] -= 1
        rows.append(row)
        rhs.append(b)
    sol = solve_linear(rows, rhs)
    values = [Fraction(0)] * g.n
    values[0] = Fraction(1)
    for v, x in zip(interior, sol):
        values[v] = x
    w = None
    if g.theta == 2 and g.degree(0) == 1:
        (w,) = g.neighbors(0)
    return HarmonicSolution(values=tuple(values), w=w)


def alpha_from_harmonic(h: HarmonicSolution) -> Fraction:
    """Return scale via the geometric law of repeated origin visits.

    Each visit to the origin continues to w, and the walk comes back before
    touching the rest of the boundary with probability H(w); the visit
    count is geometric, so its expectation is 1/(1 - H(w)).
    """
    if h.w is None:
        raise CellError(
            "return-scale identity needs a two-boundary cell with a single "
            "origin neighbor"
        )
    hw = h.value(h.w)
    if hw >= 1:
        raise CellError("origin neighbor hits the origin surely; no escape")
    return 1 / (1 - hw)


@dataclass(frozen=True)
class AlphaMuReport:
    alpha: Fraction
    mu: int
    is_path: bool
    strict: bool

    @property
    def consistent(self) -> bool:
        """alpha <= mu, with equality exactly on path cells."""
        if self.is_path:
            return self.alpha == self.mu
        return self.alpha < self.mu

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "mu": self.mu,
            "is_path": self.is_path,
            "strict": self.strict,
            "consistent": self.consistent,
        }


def verify_alpha_mu(report: CellReport, alpha: Fraction) -> AlphaMuReport:
    """Exact comparison of the return scale against the clique count.

    ``report`` is the cell's validation report, and ``alpha`` its return
    scale from alpha_from_harmonic.
    """
    return AlphaMuReport(
        alpha=alpha,
        mu=report.mu,
        is_path=report.is_path,
        strict=alpha < report.mu,
    )
