"""Verdicts for the nature of the return generating function."""

import dataclasses
import importlib
import re
from fractions import Fraction

import pytest

import cellgreen.cli
from cellgreen import (
    CellGraph,
    KernelError,
    builtin_cell,
    cell_functions,
    classify,
    green_series,
    validate_cell,
    verify_cell,
)
from cellgreen.algebra import Poly
from cellgreen.classify import OUTCOMES, Verdict, _verify_star_form
from routes import star_series


def four_cycle() -> CellGraph:
    return CellGraph(4, 2, {(0, 2), (0, 3), (1, 2), (1, 3)}, name="c4")


class TestStarCase:
    def test_paths_are_algebraic(self):
        for name in ("path2", "path3"):
            v = classify(builtin_cell(name))
            assert v.outcome == "AlgebraicStar"
            assert v.closed_form == "1/sqrt(1-z^2)"
            assert v.closed_form_verified_order >= 50

    def test_closed_form_checked_to_the_given_order(self):
        g = builtin_cell("path2")
        assert classify(g).closed_form_verified_order == 50
        for order in (0, 7, 80):
            assert classify(g, series_order=order).closed_form_verified_order == order
        with pytest.raises(ValueError):
            classify(g, series_order=-1)

    def test_star_series_central_binomials(self):
        s = star_series(9)
        assert s.coeffs == (
            1, 0, Fraction(1, 2), 0, Fraction(3, 8),
            0, Fraction(5, 16), 0, Fraction(35, 128),
        )

    @pytest.mark.parametrize("name", ["path2", "path3"])
    def test_star_check_rejects_a_deviating_series(self, name):
        gs = green_series(cell_functions(builtin_cell(name)), 30)
        _verify_star_form(gs)
        assert gs.scale == 2 and gs.ints[:7] == (1, 0, 2, 0, 6, 0, 20)
        deviations = [
            dataclasses.replace(gs, scale=4),
            dataclasses.replace(gs, ints=gs.ints[:4] + (7,) + gs.ints[5:]),
            dataclasses.replace(gs, ints=gs.ints[:29] + (1,) + gs.ints[30:]),
            dataclasses.replace(gs, ints=gs.ints[:30] + (gs.ints[30] + 1,)),
        ]
        for bad in deviations:
            with pytest.raises(KernelError, match="deviates"):
                _verify_star_form(bad)

    def test_star_series_squares_to_geometric(self):
        s = star_series(40)
        sq = s * s
        coeffs = sq.coeffs
        assert all(c == 1 for c in coeffs[::2])
        assert all(c == 0 for c in coeffs[1::2])


class TestTranscendentalCase:
    def test_diamond_verdict(self):
        v = classify(builtin_cell("diamond"))
        assert v.outcome == "DifferentiallyTranscendental"
        assert v.cell_report.theta == 2
        assert v.bipartite_branch == "bipartite"
        assert v.hypotheses is not None
        assert v.hypotheses.all_passed

    def test_nonbipartite_theta_two_cell(self):
        # Triangle with a pendant edge on each boundary vertex: theta 2,
        # odd cycle inside, so the other branch of the argument applies.
        text = "\n".join(
            [
                "vertices 5",
                "boundary 0 1",
                "edge 0 2",
                "edge 1 3",
                "edge 2 3",
                "edge 2 4",
                "edge 3 4",
            ]
        )
        from cellgreen import parse_cell

        v = classify(parse_cell(text))
        assert v.outcome == "DifferentiallyTranscendental"
        assert v.bipartite_branch == "non-bipartite"
        assert v.hypotheses.all_passed

    def test_higher_theta_is_conjectural(self):
        for name, theta in (("sierpinski", 3), ("theta4", 4)):
            v = classify(builtin_cell(name))
            assert v.outcome == "ConjecturedTranscendental"
            assert v.cell_report.theta == theta
            assert v.closed_form is None


class TestInvalidCase:
    def test_four_cycle_rejected(self):
        v = classify(four_cycle())
        assert v.outcome == "Invalid"
        assert v.cell_report is not None
        assert any("boundary" in item for item in v.cell_report.violations)

    def test_outcomes_inventory(self):
        assert OUTCOMES == (
            "AlgebraicStar",
            "DifferentiallyTranscendental",
            "ConjecturedTranscendental",
            "Invalid",
        )


class TestVerdictPayload:
    def test_json_shape(self):
        v = classify(builtin_cell("diamond"))
        data = cellgreen.cli.to_json(v)
        assert data["outcome"] == "DifferentiallyTranscendental"
        assert data["cell_report"]["theta"] == 2
        assert data["bipartite_branch"] == "bipartite"
        assert isinstance(data["theorem_basis"], str) and data["theorem_basis"]
        assert data["hypotheses"]["all_passed"] is True

    def test_basis_strings_are_descriptive(self):
        seen = set()
        for name in ("path2", "diamond", "sierpinski"):
            v = classify(builtin_cell(name))
            assert v.theorem_basis
            lowered = v.theorem_basis.lower()
            assert not re.search(r"(theorem|lemma|section)\s*\d", lowered)
            for token in ("[", "et al"):
                assert token not in lowered
            seen.add(v.theorem_basis)
        assert len(seen) == 3


class TestFullVerification:
    def test_diamond_report(self):
        report = verify_cell(builtin_cell("diamond"), max_steps=12)
        assert report.all_passed
        names = [item.name for item in report.items]
        assert "oracle_equivalence" in names
        assert "determinant_identity" in names

    def test_path_report(self):
        assert verify_cell(builtin_cell("path2"), max_steps=12).all_passed

    def test_cell_functions_once_per_verify(self, monkeypatch):
        # The package attribute `classify` is the function, not the module.
        module = importlib.import_module("cellgreen.classify")
        calls = []
        real = module.cell_functions

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "cell_functions", counted)
        assert verify_cell(builtin_cell("sierpinski"), max_steps=6).all_passed
        assert len(calls) == 1

    def test_approximant_once_per_verify(self, monkeypatch):
        module = importlib.import_module("cellgreen.blowup")
        calls = []
        real = module.blowup

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "blowup", counted)
        assert verify_cell(builtin_cell("diamond"), max_steps=8).all_passed
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["diamond", "path2", "sierpinski", "theta4"])
    def test_each_stage_runs_once_per_verify(self, name, count_calls):
        calls = {
            fn: count_calls(module, fn)
            for module, fn in [
                ("cellgreen.cells", "validate_cell"),
                ("cellgreen.cells", "boundary_doubly_transitive"),
                ("cellgreen.cells", "clique_partition"),
                ("cellgreen.iteration", "invariants"),
                ("cellgreen.harmonic", "harmonic_function"),
                ("cellgreen.iteration", "green_series"),
                ("cellgreen.iteration", "expand_scaled"),
                ("cellgreen.algebra.matrix", "resolvent_row"),
                ("cellgreen.algebra.roots", "smallest_positive_root"),
                ("cellgreen.greenkernel", "residue_scale"),
            ]
        }
        g = builtin_cell(name)
        assert verify_cell(g).all_passed
        # The cell validates itself once, and verify_cell, cell_functions,
        # classify and blowup all read that report; a path cell's verdict
        # expands its own series.
        assert len(calls["validate_cell"]) == 1
        assert len(calls["boundary_doubly_transitive"]) == 1
        assert len(calls["clique_partition"]) == 1
        assert len(calls["invariants"]) == 1
        assert len(calls["harmonic_function"]) == (1 if g.theta == 2 else 0)
        assert len(calls["green_series"]) <= (2 if g.is_path() else 1)
        # f and d are expanded once for G, which carries them to the residual.
        assert len(calls["expand_scaled"]) == (4 if g.is_path() else 2)
        # I - zP_f and I - zP_d, each eliminated once by cell_functions.
        assert len(calls["resolvent_row"]) == 2
        # The poles of f and r; d's too where its denominator, after
        # cancellation, is not f's (sierpinski and theta4).
        shared = name in ("diamond", "path2")
        assert len(calls["smallest_positive_root"]) == (2 if shared else 3)
        # Only the functions subcommand reads the residue scales.
        assert calls["residue_scale"] == []

    def test_residual_item_pins_the_constant_term(self, monkeypatch):
        # 2G solves the linear equation G = f*(G over d) as well as G does,
        # so only the G(0) = 1 condition tells the two apart.
        module = importlib.import_module("cellgreen.classify")
        real = module.green_series

        def doubled(cf, order):
            gs = real(cf, order)
            return dataclasses.replace(gs, ints=tuple(2 * b for b in gs.ints))

        monkeypatch.setattr(module, "green_series", doubled)
        report = verify_cell(builtin_cell("diamond"), max_steps=8)
        items = {item.name: item.passed for item in report.items}
        assert items["functional_residual"] is False

    def test_classify_validates_once(self, count_calls):
        # Each load is a fresh cell, which keeps its report: classifying
        # it again validates nothing more.
        calls = count_calls("cellgreen.cells", "validate_cell")
        for name in ("diamond", "path2", "sierpinski", "theta4"):
            calls.clear()
            g = builtin_cell(name)
            classify(g)
            classify(g)
            assert calls == [(g,)]

    def test_invalid_cell_fails_verification(self):
        report = verify_cell(four_cycle(), max_steps=6)
        assert not report.all_passed
        (item,) = report.items
        violations = validate_cell(four_cycle()).violations
        assert violations and item.detail == "; ".join(violations)

    def test_failed_items_show_their_failure_detail(self, monkeypatch):
        # det_d off by a factor and G doubled: three items fail, and the
        # two that have a failure detail show it.
        module = importlib.import_module("cellgreen.classify")
        real_series, real_functions = module.green_series, module.cell_functions

        def doubled(cf, order):
            gs = real_series(cf, order)
            return dataclasses.replace(gs, ints=tuple(2 * b for b in gs.ints))

        def other_det_d(g):
            cf = real_functions(g)
            return dataclasses.replace(cf, det_d=cf.det_d * Poly([1, 1]))

        monkeypatch.setattr(module, "green_series", doubled)
        monkeypatch.setattr(module, "cell_functions", other_det_d)
        report = verify_cell(builtin_cell("diamond"), max_steps=8)
        assert {i.name: i.detail for i in report.items if not i.passed} == {
            "determinant_identity": "determinants differ",
            "oracle_equivalence": "series and walk probabilities disagree",
            "functional_residual": (
                "G(0) = 1 and G - f*(G over d) vanishes through z^40"
            ),
        }
