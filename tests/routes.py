"""Reference routes that only tests use.

cell_functions reads f and d off the same resolvent matrices and cofactors
without building single entries; resolvent_det and green_entry give any
entry of (I - zT)^{-1} for the cross-checks.  grid_expansion samples the
expansion inequalities that spectral_property_report certifies.
bounded_draws and reference_monte_carlo are the batch draw and the walk
that monte_carlo's fused step replaced.  green_series_recursion solves
G = f (G over d) one coefficient at a time, a reference for the nested
expansion of green_series; verify no longer runs it, because its
functional_residual item with G(0) = 1 implies the same coefficients.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cellgreen.algebra import (
    Poly,
    PowerSeries,
    RatFunc,
    det_linear,
    series_from_ratfunc,
)
from cellgreen.greenkernel import (
    CellFunctions,
    Matrix,
    _cofactor,
    _resolvent_matrix,
)


def resolvent_det(t: Matrix) -> Poly:
    """det(I - zT), the common denominator of every entry of (I - zT)^{-1}."""
    return det_linear(_resolvent_matrix(t))


def green_entry(t: Matrix, i: int, j: int, denom: Poly | None = None) -> RatFunc:
    """Entry [i, j] of (I - zT)^{-1} by the cofactor formula.

    ``denom`` is ``resolvent_det(t)``; a caller that needs several entries
    of one matrix passes it in, so that it is computed once.
    """
    m = _resolvent_matrix(t)
    if denom is None:
        denom = det_linear(m)
    return RatFunc(_cofactor(m, i, j), denom)


def green_series_recursion(cf: CellFunctions, order: int) -> PowerSeries:
    """Coefficients of G solved order-by-order from G = f (G over d).

    Independent of the nesting in green_series: no level sizes, each
    coefficient comes from the full equation, and coefficient n of the
    right side only involves earlier coefficients of G because d starts at
    z^2.  One compose per coefficient, so meant as a cross-check at small
    truncations.  It expands f and d itself, sharing nothing with G.
    """
    count = order + 1
    f_ser = series_from_ratfunc(cf.f, count)
    d_ser = series_from_ratfunc(cf.d, count)
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        partial = PowerSeries(coeffs, count)
        rhs = f_ser * partial.compose(d_ser)
        coeffs[n] = rhs.coefficient(n)
    return PowerSeries(coeffs, count)


def _derivative(r: RatFunc) -> RatFunc:
    n, d = r.num, r.den
    return RatFunc(n.derivative() * d - n * d.derivative(), d * d)


def grid_expansion(cf: CellFunctions, points: int = 32) -> bool:
    """d(z) > z, d'(z) > 1 and d''(z) > 0 at ``points`` evenly spaced
    rationals in (1, rho_d): the sampled check that the Sturm certificate
    of spectral_property_report replaced, kept as its reference."""
    rho_d = cf.spectral_d.rho
    while rho_d.low <= 1:
        rho_d = rho_d.refine(rho_d.width / 16)
    dp = _derivative(cf.d)
    dpp = _derivative(dp)
    step = (rho_d.low - 1) / (points + 1)
    grid = (1 + step * k for k in range(1, points + 1))
    return all(cf.d(x) > x and dp(x) > 1 and dpp(x) > 0 for x in grid)


def bounded_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """rng.integers(0, bounds) for uint32 bounds >= 1, drawn the same way.

    numpy draws a value below d with Lemire's multiply-shift method
    (D. Lemire, ACM TOMACS 29, 2019): a 32-bit word u gives m = u * d,
    the value is m >> 32, and u is rejected, and another word drawn, when
    the low word of m is below (2^32 - d) % d; a bound of 1 draws nothing.
    Here every bound above 1 takes its word, in order, from one batch of
    32-bit draws, which is what the one-by-one loop draws unless it
    rejects.  A rejection is rare for small d (probability below
    d / 2^32); from the first rejected bound on, the generator is rewound
    and numpy draws the rest itself.  Values and generator state thus
    match rng.integers(0, bounds) exactly.  Returns int64 values.
    """
    many = bounds > 1
    words = np.zeros(len(bounds), dtype=np.uint32)
    state = rng.bit_generator.state
    words[many] = rng.integers(
        0, 1 << 32, size=np.count_nonzero(many), dtype=np.uint32
    )
    m = np.multiply(words, bounds, dtype=np.uint64)
    out = (m >> 32).view(np.int64)
    low = m.astype(np.uint32)
    near = np.flatnonzero(many & (low < bounds))
    if len(near):
        d = bounds[near]  # in uint32, (-d) % d is (2^32 - d) % d
        bad = near[low[near] < (-d) % d]
        if len(bad):
            first = bad[0]
            rng.bit_generator.state = state
            rng.integers(
                0, 1 << 32, size=np.count_nonzero(many[:first]), dtype=np.uint32
            )
            out[first:] = rng.integers(0, bounds[first:].astype(np.int64))
    return out


def reference_monte_carlo(a, n, trials, seed, workers=1, chunk=1 << 18) -> int:
    """The hits of monte_carlo's walk, stepped with one rng.integers(0,
    degrees) call per step over each batch of vertex ids: the same streams,
    trial split and batches, none of the slicing or raw words."""
    deg = np.diff(a.indptr)
    streams = np.random.SeedSequence(seed).spawn(workers)
    base, rem = divmod(trials, workers)
    hits = 0
    for w in range(workers):
        todo = base + (1 if w < rem else 0)
        rng = np.random.Generator(np.random.PCG64(streams[w]))
        while todo > 0:
            batch = min(todo, chunk)
            todo -= batch
            at = np.full(batch, a.origin, dtype=np.int64)
            for _ in range(n):
                at = a.indices[a.indptr[at] + rng.integers(0, deg[at])]
            hits += int(np.count_nonzero(at == a.origin))
    return hits
