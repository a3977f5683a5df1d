"""Hitting probabilities: the interior mean-value system and its uses."""

from fractions import Fraction

import pytest

from cellgreen import (
    CellError,
    CellGraph,
    alpha_from_harmonic,
    builtin_cell,
    cell_functions,
    enumerate_cells,
    harmonic_function,
    validate_cell,
)
from cellgreen.harmonic import AlphaMuReport
from routes import solve_linear


def alpha_of(g: CellGraph):
    return alpha_from_harmonic(harmonic_function(g))


def alpha_mu_of(g: CellGraph):
    report = validate_cell(g)
    return AlphaMuReport(alpha_of(g), report.mu, report.is_path)


def delete_vertex(g: CellGraph, v: int) -> CellGraph | None:
    """Cell graph minus one interior vertex, or None if it disconnects.

    Used by the monotonicity property: removing a vertex off every
    origin-to-boundary path never lowers H at the origin's neighbor.
    The result usually fails the symmetry axioms; it is built for the
    harmonic solver only, so we bypass cell validation and only keep the
    structural requirements (connected, boundary non-adjacent).
    """
    if v < g.theta:
        raise CellError("cannot delete a boundary vertex")
    keep = [u for u in range(g.n) if u != v]
    remap = {u: k for k, u in enumerate(keep)}
    edges = frozenset(
        (remap[a], remap[b]) for a, b in g.edges if a != v and b != v
    )
    try:
        return CellGraph(g.n - 1, g.theta, edges, name=g.name)
    except CellError:
        return None


def fraction_harmonic_values(g: CellGraph) -> tuple[Fraction, ...]:
    """H by Gaussian elimination over Fractions: the reference route."""
    interior = list(g.interior)
    index = {v: k for k, v in enumerate(interior)}
    rows, rhs = [], []
    for v in interior:
        row = [Fraction(0)] * len(interior)
        row[index[v]] = Fraction(g.degree(v))
        for u in g.neighbors(v):
            if u >= g.theta:
                row[index[u]] -= 1
        rows.append(row)
        rhs.append(Fraction(sum(u == 0 for u in g.neighbors(v))))
    values = [Fraction(0)] * g.n
    values[0] = Fraction(1)
    for v, x in zip(interior, solve_linear(rows, rhs)):
        values[v] = x
    return tuple(values)


class TestHarmonicSolve:
    def test_matches_fraction_elimination(self, enumerated_cells):
        cells = [*enumerated_cells, *map(builtin_cell, ("sierpinski", "theta4"))]
        for g in cells:
            assert harmonic_function(g).values == fraction_harmonic_values(g), g

    def test_diamond_values(self):
        sol = harmonic_function(builtin_cell("diamond"))
        assert sol.values == (
            1, 0, Fraction(2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)
        )
        assert sol.w == 2

    def test_path_values_are_distance_ratios(self):
        for g in enumerate_cells(2, 8):
            if not g.is_path():
                continue
            sol = harmonic_function(g)
            span = g.distance(1, 0)
            for v in range(g.n):
                assert sol.value(v) == Fraction(g.distance(1, v), span)

    def test_boundary_conditions(self):
        for name in ("diamond", "path2", "path3", "sierpinski"):
            sol = harmonic_function(builtin_cell(name))
            assert sol.value(0) == 1
            assert sol.value(1) == 0

    def test_mean_value_residual_zero(self, enumerated_cells):
        for g in enumerated_cells[::7]:
            sol = harmonic_function(g)
            for v in g.interior:
                total = sum(sol.value(u) for u in g.neighbors(v))
                assert g.degree(v) * sol.value(v) == total

    def test_maximum_principle(self, enumerated_cells):
        for g in enumerated_cells[::7]:
            sol = harmonic_function(g)
            for v in g.interior:
                assert 0 < sol.value(v) < 1

    def test_invalid_cell_solved_but_alpha_refused(self):
        # The 4-cycle fails validate_cell, and it is connected, so the
        # interior system is nonsingular and the solve is defined.  Its
        # origin has two neighbours, so the return-scale identity is not.
        c4 = CellGraph(4, 2, frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))
        assert not validate_cell(c4).valid
        sol = harmonic_function(c4)
        assert sol.values == (1, 0, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(CellError):
            alpha_from_harmonic(sol)


class TestAlphaIdentity:
    def test_diamond(self):
        assert alpha_of(builtin_cell("diamond")) == 3

    def test_paths_give_their_length(self):
        for g in enumerate_cells(2, 8):
            if g.is_path():
                assert alpha_of(g) == g.num_edges

    def test_matches_return_function_at_one(self):
        for name in ("diamond", "path2", "path3"):
            g = builtin_cell(name)
            cf = cell_functions(g)
            assert alpha_of(g) == cf.f(Fraction(1))

    def test_needs_single_neighbor_origin(self):
        with pytest.raises(CellError):
            alpha_of(builtin_cell("sierpinski"))


class TestAlphaMuComparison:
    def test_diamond_strict(self):
        rep = alpha_mu_of(builtin_cell("diamond"))
        assert rep.alpha == 3
        assert rep.mu == 6
        assert rep.strict
        assert not rep.is_path
        assert rep.consistent

    def test_path3_equality(self):
        rep = alpha_mu_of(builtin_cell("path3"))
        assert rep.alpha == rep.mu == 3
        assert rep.is_path
        assert not rep.strict
        assert rep.consistent


class TestDeletionMonotonicity:
    def test_removing_detours_never_lowers_first_neighbor_value(self):
        # series decomposition: the origin touches the rest of the cell
        # only through w, so deleting interior material can only weaken
        # the escape routes toward the far boundary
        for g in enumerate_cells(2, 7):
            sol = harmonic_function(g)
            if sol.w is None:
                continue
            base = sol.value(sol.w)
            for v in g.interior:
                if v == sol.w:
                    continue
                smaller = delete_vertex(g, v)
                if smaller is None:
                    continue
                reduced = harmonic_function(smaller)
                assert reduced.w is not None
                assert reduced.value(reduced.w) >= base

    def test_delete_vertex_rejects_boundary(self):
        with pytest.raises(CellError):
            delete_vertex(builtin_cell("diamond"), 0)

    def test_delete_vertex_handles_disconnection(self):
        # removing the path cell's middle vertex separates the ends
        assert delete_vertex(builtin_cell("path3"), 2) is None
