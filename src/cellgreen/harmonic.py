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

from .algebra.matrix import bareiss_solve
from .cells import CellError, CellGraph, adjacency_rows


@dataclass(frozen=True)
class HarmonicSolution:
    """Exact hitting probabilities, origin-first boundary conditions."""

    values: tuple[Fraction, ...]
    w: int | None

    def value(self, v: int) -> Fraction:
        return self.values[v]


def harmonic_function(g: CellGraph) -> HarmonicSolution:
    """Solve the interior mean-value system exactly, in integers.

    Boundary conditions: 1 at vertex 0, 0 at vertices 1..theta-1.  Over
    the interior vertices theta..n-1 the system is M x = b, read off the
    cell's adjacency rows: M = diag(degree) minus the interior block of the
    adjacency, and b_v the entry of row v in column 0, the edge to the
    origin.  M is a symmetric Z-matrix, diagonally dominant, and strictly
    so on the rows next to the boundary; every CellGraph is connected,
    which joins each interior vertex to such a row, so M is nonsingular
    whether or not validate_cell accepts the cell.  A nonsingular,
    symmetric, diagonally dominant matrix with a positive diagonal is
    positive definite, so every leading principal minor is positive, and
    ``bareiss_solve`` needs no pivoting: H(v) = y_v / det M.
    """
    theta, rows = g.theta, []
    for v, adj in enumerate(adjacency_rows(g)[theta:], theta):
        row = [-x for x in adj[theta:]] + [adj[0]]
        row[v - theta] += g.degree(v)
        rows.append(row)
    det, ys = bareiss_solve(rows)
    values = [Fraction(0)] * g.n
    values[0] = Fraction(1)
    for v, y in zip(g.interior, ys):
        values[v] = Fraction(y, det)
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
    """The return scale alpha (alpha_from_harmonic) against the clique count."""

    alpha: Fraction
    mu: int
    is_path: bool

    @property
    def strict(self) -> bool:
        return self.alpha < self.mu

    @property
    def consistent(self) -> bool:
        """alpha <= mu, with equality exactly on path cells."""
        if self.is_path:
            return self.alpha == self.mu
        return self.alpha < self.mu
