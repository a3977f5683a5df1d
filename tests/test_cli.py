"""End-to-end runs of the command line tool: in a subprocess, or in-process
where a test replaces a function that the CLI calls."""

import hashlib
import inspect
import json
import re
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cellgreen
import cellgreen.cli
from cellgreen.algebra import Bracket, IsolatedRoot, format_poly
from cellgreen.blowup import WalkStats
from cellgreen.cells import cell_to_json, cell_to_text, require_valid
from cellgreen.greenkernel import CheckItem, PropertyReport
from cellgreen.registry import _path

DIAMOND_TEXT = """\
vertices 6
boundary 0 1
edge 0 2
edge 1 3
edge 2 4
edge 2 5
edge 3 4
edge 3 5
"""


def payload(result):
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def digests(doc) -> tuple[str, str]:
    """sha256 of doc's JSON with sorted keys, and with its keys in order.

    The sorted digest pins the values; the ordered one pins the order of
    the keys of every nested object as well, which the report layout
    fixes too.
    """
    return tuple(
        hashlib.sha256(json.dumps(doc, sort_keys=s).encode()).hexdigest()
        for s in (True, False)
    )


class TestValidate:
    def test_builtin_diamond(self, cli):
        doc = payload(cli("validate", "--builtin", "diamond"))
        assert doc["schema"] == 1
        assert doc["tool"] == "cellgreen"
        assert doc["command"] == "validate"
        assert doc["input"]["source"] == "builtin:diamond"
        assert doc["cell"]["vertices"] == 6
        assert doc["report"]["valid"] is True
        assert doc["report"]["violations"] == []
        assert isinstance(doc["elapsed_seconds"], float)

    def test_cell_file(self, cli, tmp_path):
        path = tmp_path / "diamond.cell"
        path.write_text(DIAMOND_TEXT)
        doc = payload(cli("validate", str(path)))
        assert doc["report"]["mu"] == 6
        assert doc["input"]["source"] == str(path)
        assert len(doc["input"]["sha256"]) == 64

    def test_long_path_exits_zero(self, cli, tmp_path, long_path_text):
        path = tmp_path / "path1200.cell"
        path.write_text(long_path_text)
        doc = payload(cli("validate", str(path)))
        assert doc["report"]["valid"] is True
        assert doc["report"]["doubly_transitive"] is True

    def test_long_triangle_strip_gets_a_report(
        self, cli, tmp_path, triangle_strip_text
    ):
        path = tmp_path / "strip1100.cell"
        path.write_text(triangle_strip_text)
        result = cli("validate", str(path))
        assert result.returncode == 2, result.stderr
        report = json.loads(result.stdout)["report"]
        assert report["doubly_transitive"] is False
        assert len(report["clique_partition"]) == 1100

    def test_invalid_cell_exits_two(self, cli, tmp_path):
        path = tmp_path / "c4.cell"
        path.write_text(
            "vertices 4\nboundary 0 1\nedge 0 2\nedge 0 3\nedge 1 2\nedge 1 3\n"
        )
        result = cli("validate", str(path))
        assert result.returncode == 2
        doc = json.loads(result.stdout)
        assert doc["report"]["valid"] is False
        assert doc["report"]["violations"]

    def test_origin_line_exits_two(self, cli, tmp_path):
        path = tmp_path / "p2.cell"
        path.write_text("vertices 3\nboundary 0 1\norigin 0\nedge 0 2\nedge 1 2\n")
        result = cli("validate", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: line 3: unknown directive 'origin'\n"

    def test_unknown_builtin(self, cli):
        result = cli("validate", "--builtin", "nosuch")
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_missing_input(self, cli):
        result = cli("validate")
        assert result.returncode == 2
        assert "no input" in result.stderr


class TestComputations:
    def test_functions_payload(self, cli):
        doc = payload(cli("functions", "--builtin", "diamond", "--order", "8"))
        fns = doc["functions"]
        assert fns["f"]["num"] == "-6z^2 + 9"
        assert fns["f"]["den"] == "z^4 - 9z^2 + 9"
        assert fns["d"]["num"] == "z^4"
        assert fns["f"]["series"][0] == "1"
        assert fns["d"]["series"][4] == "1/9"
        assert len(fns["f"]["series"]) == 9
        assert fns["spectral_f"]["pole_order"] == 1

    def test_long_endpoints_print_under_a_low_digit_limit(
        self, tmp_path, monkeypatch, capsys
    ):
        # The 41-vertex path's residue scale endpoints print 2,353
        # characters, a numerator and a denominator each over 640 digits,
        # the least int-to-str limit, which only the printing lifts.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "path40.cell").write_text(cell_to_text(_path(40)))

        def functions_doc():
            assert cellgreen.cli.main(["functions", "path40.cell"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsed_seconds"]
            return doc

        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            unlimited = functions_doc()
            kappa = unlimited["functions"]["spectral_f"]["residue_scale"]
            assert len(kappa["low"]) == 2353
            sys.set_int_max_str_digits(640)
            assert functions_doc() == unlimited
            assert sys.get_int_max_str_digits() == 640
            # Input parsing keeps the limit: a point of 5,000 digits fails.
            point = "1" * 5000 + "/1" + "0" * 5000
            code = cellgreen.cli.main(["probe", "path40.cell", "--points", point])
            assert code == 2
            assert "is not a rational number" in capsys.readouterr().err
            # A report that fails to print leaves the limit as it was.
            def broken(p):
                raise RuntimeError("planted")

            monkeypatch.setattr(cellgreen.cli, "format_poly", broken)
            with pytest.raises(RuntimeError, match="planted"):
                cellgreen.cli.main(["functions", "path40.cell"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)

    def test_green_payload(self, cli):
        doc = payload(cli("green", "--builtin", "diamond", "--order", "8"))
        green = doc["green"]
        assert green["order"] == 8
        assert green["coefficients"] == [
            "1", "0", "1/3", "0", "2/9", "0", "5/27", "0", "40/243",
        ]
        assert green["factors_used"] == 2

    def test_invariants_payload(self, cli):
        doc = payload(cli("invariants", "--builtin", "diamond"))
        inv = doc["invariants"]
        assert inv["tau"] == "18"
        assert inv["alpha"] == "3"
        assert inv["mu"] == 6
        assert inv["bipartite"] is True
        assert doc["alpha_from_harmonic"] == "3"
        assert doc["alpha_mu"]["consistent"] is True

    def test_classify_exit_codes(self, cli, tmp_path):
        doc = payload(cli("classify", "--builtin", "path2"))
        assert doc["verdict"]["outcome"] == "AlgebraicStar"

        path = tmp_path / "c4.cell"
        path.write_text(
            "vertices 4\nboundary 0 1\nedge 0 2\nedge 0 3\nedge 1 2\nedge 1 3\n"
        )
        result = cli("classify", str(path))
        assert result.returncode == 2
        assert json.loads(result.stdout)["verdict"]["outcome"] == "Invalid"

    def test_invariants_solves_the_harmonic_system_once(self, count_calls, capsys):
        calls = count_calls("cellgreen.harmonic", "harmonic_function")
        assert cellgreen.cli.main(["invariants", "--builtin", "diamond"]) == 0
        assert json.loads(capsys.readouterr().out)["alpha_from_harmonic"] == "3"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, poles",
        [("diamond", 1), ("path2", 1), ("sierpinski", 2), ("theta4", 2)],
    )
    def test_green_isolates_only_the_poles_of_f_and_d(
        self, name, poles, count_calls, capsys
    ):
        # d's pole is f's where the two keep one denominator (diamond,
        # path2); r's pole and the residue scales are never needed.
        isolated = count_calls("cellgreen.algebra.roots", "smallest_positive_root")
        scaled = count_calls("cellgreen.greenkernel", "residue_scale")
        assert cellgreen.cli.main(["green", "--builtin", name, "--order", "8"]) == 0
        capsys.readouterr()
        assert len(isolated) == poles
        assert scaled == []

    def test_output_is_deterministic(self, cli):
        first = payload(cli("invariants", "--builtin", "sierpinski"))
        second = payload(cli("invariants", "--builtin", "sierpinski"))
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second


class TestBlowupAndSimulate:
    def test_blowup_emit(self, cli, tmp_path):
        out = tmp_path / "level2.txt"
        doc = payload(
            cli("blowup", "--builtin", "diamond", "--level", "2", "--emit", str(out))
        )
        appx = doc["approximant"]
        assert appx["level"] == 2
        assert appx["edges"] == 36
        assert appx["safe_horizon"] == 31
        lines = out.read_text().strip().splitlines()
        assert lines[0] == f"vertices {appx['vertices']}"
        assert len(lines) == 2 + appx["edges"]

    @pytest.mark.parametrize(
        "command, level",
        [("blowup", 7000), ("blowup", 30_000_000), ("simulate", 9000)],
    )
    def test_budget_exits_three_at_any_level(self, cli, command, level):
        started = time.perf_counter()
        result = cli(command, "--builtin", "diamond", "--level", str(level))
        assert time.perf_counter() - started < 5
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"error: level {level} needs more than 1000000 edges, "
            "budget is 1000000\n"
        )

    def test_budget_env_var(self, cli):
        result = cli(
            "blowup", "--builtin", "diamond", "--level", "4",
            env_extra={"CELLGREEN_EDGE_BUDGET": "100"},
        )
        assert result.returncode == 3

    def test_simulate_reports_deviation(self, cli):
        doc = payload(
            cli(
                "simulate", "--builtin", "diamond", "--steps", "4",
                "--trials", "20000", "--seed", "7",
            )
        )
        sim = doc["simulate"]
        assert sim["trials"] == 20000
        assert sim["within_horizon"] is True
        assert sim["exact"] == "2/9"
        assert sim["deviation_sigmas"] < 5
        assert sim["seed"] == 7
        assert "workers" not in sim

    def test_workers_flag_exits_two(self, cli):
        result = cli("simulate", "--builtin", "diamond", "--workers", "2")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments: --workers" in result.stderr

    @pytest.mark.parametrize(
        "args", [["blowup", "--level", "2"], ["simulate", "--steps", "4"]]
    )
    def test_unequal_boundary_distances_exit_two(
        self, cli, tmp_path, chained_triangles_text, args
    ):
        path = tmp_path / "chain.cell"
        path.write_text(chained_triangles_text)
        result = cli(*args, str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: invalid chain.cell: automorphism group is not doubly "
            "transitive on the boundary\n"
        )

    # Each cell passes every axiom but double transitivity, so validate,
    # blowup and simulate all reject it, with the same line.
    @pytest.mark.parametrize("fixture", ["unswappable_text", "swap_only_text"])
    @pytest.mark.parametrize("args", [
        ["blowup", "--level", "2"],
        ["simulate", "--steps", "4", "--trials", "1000"],
    ])
    def test_cells_that_validate_rejects_exit_two(
        self, tmp_path, capsys, request, fixture, args
    ):
        path = tmp_path / "bad.cell"
        path.write_text(request.getfixturevalue(fixture))
        assert cellgreen.cli.main(["validate", str(path)]) == 2
        capsys.readouterr()
        assert cellgreen.cli.main([*args, str(path)]) == 2
        assert capsys.readouterr() == ("", (
            "error: invalid bad.cell: automorphism group is not doubly "
            "transitive on the boundary\n"
        ))

    def test_simulate_is_reproducible(self, cli):
        args = (
            "simulate", "--builtin", "path2", "--steps", "2",
            "--trials", "5000", "--seed", "3",
        )
        assert payload(cli(*args))["simulate"]["hits"] == payload(cli(*args))["simulate"]["hits"]


class TestVerify:
    def test_verify_builtin(self, cli):
        doc = payload(cli("verify", "--builtin", "path2", "--max-steps", "8"))
        report = doc["verify"]["report"]
        assert report["all_passed"] is True
        assert any(i["name"] == "oracle_equivalence" for i in report["items"])

    def test_verify_round_trip(self, cli, tmp_path):
        saved = tmp_path / "report.json"
        doc = payload(cli("verify", "--builtin", "diamond", "--max-steps", "8"))
        saved.write_text(json.dumps(doc))
        doc2 = payload(cli("verify", "--from-report", str(saved)))
        assert doc2["round_trip"]["match"] is True
        assert doc2["round_trip"]["differences"] == []

    def test_verify_enumerate_small(self, cli):
        doc = payload(
            cli("verify", "--enumerate", "--max-vertices", "5", "--max-steps", "6")
        )
        body = doc["verify"]
        assert body["cells_checked"] == 8
        assert body["all_passed"] is True
        assert body["failures"] == []

    def test_verify_enumerate_lists_a_failed_item(self, monkeypatch, capsys):
        # The second cell checked gets one failed item: the failures list
        # names that cell and that item alone, with the item's keys in order.
        checked = []
        verify_cell = cellgreen.cli.verify_cell

        def planted(g, **kwargs):
            report = verify_cell(g, **kwargs)
            checked.append(g)
            if len(checked) != 2:
                return report
            first, *rest = report.items
            failed = CheckItem(first.name, False, "planted failure")
            return PropertyReport((failed, *rest))

        monkeypatch.setattr(cellgreen.cli, "verify_cell", planted)
        args = ["verify", "--enumerate", "--max-vertices", "4", "--max-steps", "6"]
        assert cellgreen.cli.main(args) == 2
        body = json.loads(capsys.readouterr().out)["verify"]
        assert body["cells_checked"] == len(checked) == 3
        assert body["all_passed"] is False
        assert json.dumps(body["failures"]) == json.dumps([
            {
                "cell": cell_to_json(checked[1]),
                "failed": [
                    {"name": "valid_cell", "passed": False, "detail": "planted failure"}
                ],
            }
        ])

    def test_verify_round_trip_names_a_flipped_item(self, tmp_path, capsys):
        argv = ["verify", "--builtin", "diamond", "--max-steps", "8"]
        assert cellgreen.cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        item = doc["verify"]["report"]["items"][3]
        assert item == {"name": "radius_gap", "passed": True, "detail": item["detail"]}
        item["passed"] = False
        saved = tmp_path / "report.json"
        saved.write_text(json.dumps(doc))
        assert cellgreen.cli.main(["verify", "--from-report", str(saved)]) == 2
        again = json.loads(capsys.readouterr().out)
        assert again["round_trip"]["match"] is False
        assert again["round_trip"]["differences"] == ["radius_gap"]
        assert again["verify"]["report"]["all_passed"] is True


class TestProbe:
    def test_probe_csv(self, cli):
        result = cli(
            "probe", "--builtin", "path2", "--points", "1/2,9/10", "--order", "200"
        )
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "z,partial_sum,tail_bound,scaled"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1/2"
        assert float(first[3]) == pytest.approx(0.8165, abs=5e-4)

    def test_bad_point_fails_before_the_series(self, monkeypatch, capsys):
        def no_series(*args, **kwargs):
            raise AssertionError("green_series was called")

        monkeypatch.setattr(cellgreen.cli, "green_series", no_series)
        code = cellgreen.cli.main([
            "probe", "--builtin", "sierpinski", "--order", "120",
            "--points", "1/2,9/10",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: point 9/10 too close to 1 for order 120")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("points", ["1/0", "abc", "1/2,x/3"])
    def test_unreadable_points_exit_two(self, cli, points):
        result = cli("probe", "--builtin", "path2", "--points", points)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: probe point ")
        assert "is not a rational number" in result.stderr
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("points", ["", " , "])
    def test_no_points_exit_two_before_the_cell_loads(self, cli, points):
        # The cell file does not exist: the error shows it was never read.
        result = cli("probe", "no-such.cell", "--points", points)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: --points must name at least one point\n"

    def test_version_flag(self, cli):
        result = cli("--version")
        assert result.returncode == 0
        assert result.stdout.startswith("cellgreen ")


class TestInputErrors:
    @pytest.mark.parametrize("command", ["functions", "green", "probe"])
    def test_negative_order_exits_two(self, cli, command):
        result = cli(command, "--builtin", "diamond", "--order", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: --order must be nonnegative, got -1\n"

    def test_from_report_needs_a_report(self, cli, tmp_path):
        path = tmp_path / "not-a-report.json"
        path.write_text(json.dumps({"a": 1}))
        result = cli("verify", "--from-report", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path} is not a verify report: no field 'cell'\n"
        )

    def test_from_report_names_a_nested_field(self, cli, tmp_path):
        doc = payload(cli("verify", "--builtin", "path2", "--max-steps", "6"))
        del doc["verify"]["settings"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        result = cli("verify", "--from-report", str(path))
        assert result.returncode == 2
        assert "is not a verify report: no field 'settings'" in result.stderr
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("steps", [12.5, "12", True, -3])
    def test_from_report_checks_max_steps(self, cli, tmp_path, steps):
        doc = payload(cli("verify", "--builtin", "path2", "--max-steps", "6"))
        doc["verify"]["settings"]["max_steps"] = steps
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        result = cli("verify", "--from-report", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}: max_steps must be a nonnegative integer, "
            f"got {json.dumps(steps)}\n"
        )

    @pytest.mark.parametrize(
        "args, flag, value",
        [
            (["simulate", "--steps", "-2"], "--steps", -2),
            (["verify", "--max-steps", "-1"], "--max-steps", -1),
            (["classify", "--series-order", "-5"], "--series-order", -5),
            (["simulate", "--seed", "-3"], "--seed", -3),
        ],
    )
    def test_negative_counts_exit_two(self, cli, args, flag, value):
        result = cli(*args, "--builtin", "diamond")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {flag} must be nonnegative, got {value}\n"

    # Each pair would leave one input unread.  The files do not exist and
    # --max-vertices is over its budget, so the one-line error shows that
    # nothing was read or run first.
    @pytest.mark.parametrize(
        "args, given",
        [
            (
                ["green", "--builtin", "diamond", "missing.cell"],
                "a cell file and --builtin",
            ),
            (
                ["validate", "missing.cell", "--builtin", "path2"],
                "a cell file and --builtin",
            ),
            (
                ["verify", "--from-report", "missing.json", "--enumerate"],
                "--from-report and --enumerate",
            ),
            (
                ["verify", "--from-report", "missing.json", "--builtin", "path2"],
                "--builtin and --from-report",
            ),
            (
                ["verify", "--from-report", "missing.json", "missing.cell"],
                "a cell file and --from-report",
            ),
            (
                ["verify", "--enumerate", "--max-vertices", "40", "missing.cell"],
                "a cell file and --enumerate",
            ),
            (
                ["verify", "--enumerate", "--builtin", "diamond"],
                "--builtin and --enumerate",
            ),
        ],
    )
    def test_conflicting_inputs_exit_two(self, args, given, capsys):
        assert cellgreen.cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {given} exclude each other: give one input\n"

    # A flag that the run would ignore is refused.  The files do not exist,
    # so the one-line error shows that nothing was read first.
    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["verify", "--from-report", "missing.json", "--max-steps", "3"],
                "--max-steps does not apply with --from-report",
            ),
            (
                ["verify", "--from-report", "missing.json", "--max-steps", "12"],
                "--max-steps does not apply with --from-report",
            ),
            (
                ["verify", "--builtin", "path2", "--max-vertices", "99"],
                "--max-vertices applies only with --enumerate",
            ),
            (
                ["verify", "missing.cell", "--max-vertices", "6"],
                "--max-vertices applies only with --enumerate",
            ),
            (
                ["verify", "--from-report", "missing.json", "--max-vertices", "5"],
                "--max-vertices applies only with --enumerate",
            ),
        ],
    )
    def test_ignored_verify_flags_exit_two(self, args, message, capsys):
        assert cellgreen.cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_verify_defaults_reach_the_settings(self, capsys, monkeypatch):
        monkeypatch.setattr(cellgreen.cli, "enumerate_cells", lambda lo, hi: iter(()))
        assert cellgreen.cli.main(["verify", "--enumerate"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verify"]["settings"] == {"max_steps": 12, "max_vertices": 6}

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_exit_two(self, cli, trials):
        result = cli(
            "simulate", "--builtin", "diamond", "--trials", str(trials),
            "--steps", "10000000",
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: --trials must be at least 1, got {trials}\n"


class TestVerifyGolden:
    # sha256 of each builtin's `verify` JSON (sorted keys, elapsed_seconds
    # removed), re-recorded when the root counts became Descartes counts
    # alone: the JSON before differs only in two details, which read
    # "d(z)>z, d'(z)>1, d''(z)>0 on (1, rho_d), certified by Sturm counts"
    # and "Sturm count confirms no denominator root of f in (0, rho_f)".
    GOLDEN = {
        "diamond": "48d2ca462194a43a32c7ab8f1bc800977406436f9cdc49b39d979b3a67aeb7a7",
        "path2": "53d7504e3b3c8b36f44822717895f03ae8911249990181917d86e70a1cf58211",
        "path3": "a898f86b6a2d35a7ea96e40e8ab1eaf4e319db1c724b0c5b14e332a8d5baea6e",
        "sierpinski": "de2e830902076ac08afeef14b61cc80a0a0780c03fd54756413b4b8ae89a9ea7",
        "theta4": "fadd675bcf34e6a985c3ef86f2ed813df23a5f4e94bad70a0a443fb5d39f5f9c",
    }
    # The same JSON with its keys in order, recorded before one renderer took
    # over the layout that each report's to_json method wrote out by hand.
    ORDERED = {
        "diamond": "64dcb68a1f841e5f173b440de23514ef6bee8d0c462288ba990367cfc54c4ad8",
        "path2": "bf67c8cc6664c243c1fc324eb42e988fe71a5a484e39b6d303a53100afbff4af",
        "path3": "6f9c3b18005c8ccc8b1c5f199d4c9819353db6681cf8a8f8a443fc9be8b31e96",
        "sierpinski": "082dfd91076b506bc35c20f3bf38996ba509c9a407dbac7542856657ea1e13e6",
        "theta4": "751d6bba813c4bc882c4f597019b047556e10526ade344f8c42d679451cdb8c7",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_verify_report_digest(self, name, capsys):
        assert cellgreen.cli.main(["verify", "--builtin", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        assert digests(doc) == (self.GOLDEN[name], self.ORDERED[name])


class TestOutputGolden:
    # sha256 of each JSON subcommand's output (sorted keys, elapsed_seconds
    # removed) on the five builtins and on one cell file, recorded before the
    # subcommands' shared steps moved into main.  The simulate digests were
    # recorded again when the count walk replaced the per-walker walk, and
    # again when the walk became one seeded stream: the output of that
    # stream, which a single worker drew, with the workers field gone.
    ARGS = {
        "validate": ["validate"],
        "functions": ["functions", "--order", "8"],
        "green": ["green", "--order", "30"],
        "invariants": ["invariants"],
        "classify": ["classify"],
        "blowup": ["blowup", "--level", "2"],
        "simulate": ["simulate", "--steps", "4", "--trials", "20000", "--seed", "7"],
    }
    CELL_TEXT = (
        "vertices 6\nboundary 0 1\nedge 0 2\nedge 1 3\nedge 2 3\nedge 2 4\n"
        "edge 2 5\nedge 3 4\nedge 3 5\nedge 4 5\n"
    )
    GOLDEN = {
        "validate": {
            "diamond": "b7ab768c93ae1e96f4665868b68e8b9278eaabcff3b58f0530a5c394094cbce2",
            "path2": "c2be639420043aeb25fb5287f2e31c1a35383aa0d28dbaf8fd446851a1d83022",
            "path3": "8e4f484327a4c9685c273276274a688ccc9e127bb95d4316b0c00d6d330e2e7c",
            "sierpinski": "e4b0578058906975cba5a2824c87b18ce16058df3ae02e17c42bfc7eac104138",
            "theta4": "0f3fba70cb5597f5efe2e06ab89a0e9759ffe6501f197ba91ae65a0a569d9846",
            "cell file": "1f181307794c2516437ff27f4d2151b92665956aed2606db72256e0ee6114658",
        },
        "functions": {
            "diamond": "5d3aa596f726180aa0517a70dd4e8db9c894e1107a729739d67dd46081a5158e",
            "path2": "fbd27c043f456a99a1efe98d206a3e6eb37cf8515c9b92339158bc71fc43568b",
            "path3": "c35058a3e0ad0184c22d7d8cfdc4b22d816bcc40dc8b56371f5c10fc66cb9c80",
            "sierpinski": "8e21bbb40c7809fe4ffd8accc369632c4e31b0efdbc3a4479e79132f79d5fc45",
            "theta4": "6e67a0db7699bcdab75309f7c049f9b01e179f8838e77474879307d53ec8c97b",
            "cell file": "74dcfd04f1a662c225d7003b5b15ba9fa90e1df91318bfba8c5bbb63874d195b",
        },
        "green": {
            "diamond": "150dbbd4d3f836d9556a1e2e1d5d4b67902fecc6b2b3c48e3c941976a99c9956",
            "path2": "9216662047b38230400dba183b7782d8e807dea6cf21de6ac7be5f548c709ec1",
            "path3": "f422e0a1c6c2f822b0908fd080913768d1fbad0ea71f1f4f2797c4235d728051",
            "sierpinski": "3107a6ad1a0a1d898880a1732efad370b0e5673e14644ee2a5bcbf1a9f54b742",
            "theta4": "e952f147c267df56792ec8e5cd407b6277e5754986a7f8397469eb86ff9e8af1",
            "cell file": "8fc27741251466d8343dc3a9896e789d97f1c7817b5919d41b087f6ef77c7dd7",
        },
        "invariants": {
            "diamond": "f0d95d0d7e3f9b5ea94fac96018de3daaefeb78acd575ee8430416a1f46ec4d4",
            "path2": "9b2e474b47b0f661af40886f5a7db2b441ad6480967f856c81cf367a9fa42e38",
            "path3": "258d9b759f288afd0991130672367589ec87fd6fdc0e4b4b569a08fb3f88e53a",
            "sierpinski": "c896c9121eda282250533d3c9e1a776e7b330979cefbddcdff6567bb6d599990",
            "theta4": "4215102747f1bbb554f4198fec4e20df11ff6b5f1c6fcbcd4fd524920c1c0063",
            "cell file": "d00aab4e7dd924aa4e2f975df3a3bb916218cbc3210035bb8cf712397545f03e",
        },
        "classify": {
            "diamond": "cef19050d5a26125f5c67648db7282cd122b223943d06c1c47b7a028d61b0ac2",
            "path2": "3935dc4d8cf32a2b60e9618d82c714a36341c1ca2bc2e73324f6fa2bd3440c56",
            "path3": "05aa1118e4d10a1c0b581cd20166c6bab04f98413820d85e3146f761e5a14d39",
            "sierpinski": "594cca4112e82f229503bd228651826ce2f820afe9871757b9ee8320a0723a25",
            "theta4": "3820b20af184bdf41a7a15c0fb848d6a3d31495b954f13b0a075ec0d5225bef7",
            "cell file": "ae75c1c7309d102f472df4da37767753190cb4993a4c39f624ce414b7a98fc54",
        },
        "blowup": {
            "diamond": "7c0eea6b1c0032c69cbb16a0b6c787cbd9d0478aefda6fa6a711fd98df2cc060",
            "path2": "fbf65a68109ba1ed9fb21b20c0718578ac78a66d2e39ac55a5e456876cf3debb",
            "path3": "288ca21bd60ada80f7e9abfaa6a024829b200fb7e5f5e78cd4546d7b4c96a1e4",
            "sierpinski": "88c1c49cc6114eb17fb3b4d5a23bb52e1de082476b9558390469903ed19cfcb7",
            "theta4": "aa1286a6c6578fb16a110a046665d22fe2e8fce1cf34ba42cb4c7a1fa89cdb8a",
            "cell file": "2fa702fd05a49c6c3d9e72ed3a6f9af86fb7ecdec920d8a5261934243eb849fd",
        },
        "simulate": {
            "diamond": "9eb5c590a9085c56122f754ae320e2b1e2514d268e5c8072bf31488194b375e9",
            "path2": "d89712a9f46b34cfd7795b03512063af16c844b011c96524055872bc3f18330e",
            "path3": "7a82331b225d77fb2f46c477f3ce8c261f8ab6fd65612cf1b6c778bfb4bb7819",
            "sierpinski": "5ebfb1588d2b7a228210c206f9030930106f086fe884323e38aabe2a31e27c9a",
            "theta4": "a29a0bab85baf7c77133a69132d2981b6bd5d36590ee8e5c9c371d3c53c8612c",
            "cell file": "50e0f757ca42470a5e7e7e31408d6a9afb7031b988bfeb56c8c2a6cafe2d20d8",
        },
    }

    # The same JSON with its keys in order, recorded before one renderer took
    # over the layout that each report's to_json method wrote out by hand.
    ORDERED = {
        "validate": {
            "diamond": "56e77b086642f386548971139414cae7b2ee81d541e6b15f866a4abcad4efc7e",
            "path2": "67fd76505c106236c217a622fae94cac5fcf8f081ea4fe627f0258dc5facc661",
            "path3": "1533256f4530ff8806b8df63aa0b3a6a6ed2bbf1e4cb9bb72c1263b5b3742b98",
            "sierpinski": "b558f836d3489f3f72a5454f5013fe8c2dbb767d59a405297eb2349dc95cf2a9",
            "theta4": "18c313601c7238a75412fa2d8699ca31886e1c9fd78933c5018093de3fad2c4d",
            "cell file": "0b4dc21beb4a30bf81b83c2519b1a228ddab0e08e4889e40ad9ae7d8b5aa8371",
        },
        "functions": {
            "diamond": "fb573f3c5909409b4cddfb03ec1ec1cb3f30614986dd772f90192ae356477681",
            "path2": "5e719e5e32e1e6e2e78835befe65bae92f8818780e604584af54eb444e85f638",
            "path3": "477143f4b8f925a251238d1d0d2351f309ce128f6172e7ee87a0b26cfb516fc2",
            "sierpinski": "278b57abf21ba384cf9e9f366094f75e74087959e8c00d973d7aa524ca894319",
            "theta4": "e166e62c19330127566a377333f8708d2420dd2cee2dad49e22aeef0351eff73",
            "cell file": "fb8c6cadd47217cef349abdbeef472a5e45a0e56658981feb276b57905b846c8",
        },
        "green": {
            "diamond": "53760405ac19690c66c6abbbdc6d0e01fb7e04eb14d84c4c32e8120eb50c9e1b",
            "path2": "406db0b3d66cfa38e6b3423cf49a1016d391c8170a24a573024b12eb04257785",
            "path3": "36dfe9089c50aed07fce3b7f912e45221be45bc73d1c068d7f2d76f8785a9a8c",
            "sierpinski": "48deb9b9aacc847a6c23d8b0703fdf625d5b26db982cfaa7865949eacba15666",
            "theta4": "84f606cc9092de1f78c27f23b4f8e327ad17862f8b9c448f8f429caeb7903015",
            "cell file": "cc9ab491bf53379a09b2adee59b482ecb20aeb7bf545fa22a4267c6588b6569c",
        },
        "invariants": {
            "diamond": "32f0976f9a92c9a9eacb021e256f3066ecda748868404ee4a956ad13b124e913",
            "path2": "e73c3f5f9d15cbf4510c83ddd052dd3caec5f3922ecdd503b4b278ccd5f741d9",
            "path3": "0c57bf67cc45590a5f196a08e2abf4165332990be6532b947ef72c84b9eef053",
            "sierpinski": "5b04b05407d1b9dfdf3e9e385cca5712df371586e3177eedbd7c0f9c52864494",
            "theta4": "0c56df7fb7c349578d6882c4c929006edbdb32310a25ba9a1c7d66521341faa2",
            "cell file": "7f9c7721e02a1f2730debfbb1728f936df623182e7e8382d57111a4e4e61ae26",
        },
        "classify": {
            "diamond": "c492f7c4fca36d3092e5da79de6502389e8d3adebf8851a4c2310df4adc83317",
            "path2": "76092a9724bc07d14278cfc978bcbb9e78b47c6a748d4a46dfe82f273ba8bc47",
            "path3": "e1a23733e991631f2136fb38b9a98d5eb6fc7f5f6d0a361cccc851deeae5b90a",
            "sierpinski": "1fee16d87e59d33783f7df7c4d1c2364e96d780c17cf4795570877218735711c",
            "theta4": "fa1b0c53eac5cb108153b6eaf9e7791702bcf6b182d41cd977b2e01a0b5dfca4",
            "cell file": "61fdbb0739a93f0582c0349ac720f9daf1739096777711728448a518beedf052",
        },
        "blowup": {
            "diamond": "d63a60c6647200fc92aa6f31f014b8e3cefeb4345b785bfe1a2b4860aff03ce1",
            "path2": "be720222e5f7b121b25963b1eac7faa948050bb414476d355491f1d280768079",
            "path3": "a1ddff78cd442a00b3cf324ba6783887c0ac9800284a044973cc54d4827052ee",
            "sierpinski": "cbc2d7e97e0b520e9874d92764a7a6fa6c33231d5e2b9fe4860dab3d6fd4090d",
            "theta4": "1cbeaf563b948c7eb62f6b61c2e47f138938a5557faa8c4f17fd1d5eb0a5f9ee",
            "cell file": "6c7a401189d880dee0a83fc5125fad4e5dd628ab6084d834c2fbed9fb27936ed",
        },
        "simulate": {
            "diamond": "79efd7bb65ed9ba7e68c39c7c087bd5f3c3db5ddc9a66975fe2db5acc422845e",
            "path2": "a06e6d51fb6bac00b167da66c718381a80112fe22c47758fd9b5367690934223",
            "path3": "7dd503c58baca77ff36157675e836dcfe0f82e02412f71328ceac84b1c7e2efb",
            "sierpinski": "3a5d225e8750953a5e95b266d5f169a3284050a0ee6f306548baddff45dd5632",
            "theta4": "2991b306a624818ac128a75f3e5d9c7574c330a1dc5dc70c84cfba183c75eb6e",
            "cell file": "e0b8dce0a8109422e451926c9dfbf8aa62d0437432d94f0a119bddefe3040b8a",
        },
    }

    @pytest.mark.parametrize(
        "command, source",
        sorted((c, s) for c, by_source in GOLDEN.items() for s in by_source),
    )
    def test_report_digest(self, command, source, tmp_path, monkeypatch, capsys):
        if source == "cell file":
            # A relative path keeps input.source and the cell name fixed.
            monkeypatch.chdir(tmp_path)
            (tmp_path / "cell.txt").write_text(self.CELL_TEXT)
            given = ["cell.txt"]
        else:
            given = ["--builtin", source]
        assert cellgreen.cli.main(self.ARGS[command] + given) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        assert digests(doc) == (
            self.GOLDEN[command][source], self.ORDERED[command][source]
        )

    # sha256 over every 7th cell of enumerate_cells(2, 8) of the same
    # per-report text, each cell read from one file, recorded while
    # CellFunctions still carried a spectral record of f, d and r.
    ENUMERATED = {
        "classify": ["classify"],
        "functions": ["functions", "--order", "12"],
        "invariants": ["invariants"],
        "verify": ["verify"],
    }
    ENUMERATED_GOLDEN = {
        "classify": "cde2c562c4cd337c1bb69130b1bac2415a23d1ccd3a68eb9b35aae4d00a5af9a",
        "functions": "834fbd6a2f22fec2818dce5b0e81769210d801c037e51ca761032d808a07b54c",
        "invariants": "7dd19c23fc29e677aa8d5bb51177a358aa02ac564c86d7b6603c1db4e655aa4f",
        "verify": "358b90a493434127a89e2718b14d88bea86e28c300df32ff16ff0b607cf3ec5b",
    }
    ENUMERATED_ORDERED = {
        "classify": "89daa17e0336e51eef605b876ce4243fc0eb2481518d2919ab4d29960d9c1cf8",
        "functions": "28753824c7bfa9776f50a705f888c152711d0206fb7c94c9c5ebdaef2ceedcb8",
        "invariants": "f2eccd1ad0508d0aadc0c11d0e21eeebe61d9471d4c864655f6be356258258c9",
        "verify": "4c535e383399330fbe3b03cf7e12dc7ced52245605db421ff666baf83ec397ea",
    }

    @pytest.mark.parametrize("command", sorted(ENUMERATED))
    def test_enumerated_digest(
        self, command, enumerated_cells, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        by_sorted, by_order = hashlib.sha256(), hashlib.sha256()
        for g in enumerated_cells[::7]:
            (tmp_path / "cell.txt").write_text(cell_to_text(g))
            assert cellgreen.cli.main(self.ENUMERATED[command] + ["cell.txt"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsed_seconds"]
            by_sorted.update(json.dumps(doc, sort_keys=True).encode())
            by_order.update(json.dumps(doc).encode())
        assert (by_sorted.hexdigest(), by_order.hexdigest()) == (
            self.ENUMERATED_GOLDEN[command], self.ENUMERATED_ORDERED[command]
        )

    ENVELOPE = ["schema", "tool", "version", "command", "input", "cell"]

    @pytest.mark.parametrize(
        "args",
        [*ARGS.values(), ["verify", "--max-steps", "6"]],
        ids=[*ARGS, "verify"],
    )
    def test_envelope_keys_come_first_and_timing_last(self, args, capsys):
        assert cellgreen.cli.main(args + ["--builtin", "path2"]) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys[:6] == self.ENVELOPE
        assert keys[-1] == "elapsed_seconds"
        assert len(keys) > 7

    def test_enumerate_envelope_has_no_cell(self, capsys):
        assert cellgreen.cli.main(["verify", "--enumerate", "--max-vertices", "3"]) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys[:5] == self.ENVELOPE[:5]
        assert keys[5] == "verify"
        assert keys[-1] == "elapsed_seconds"


class TestBudgets:
    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", ""])
    @pytest.mark.parametrize(
        "args",
        [
            ["validate", "--builtin", "diamond"],
            ["blowup", "--builtin", "diamond", "--level", "2"],
        ],
    )
    def test_bad_budget_variable_exits_two(self, cli, args, raw):
        result = cli(*args, env_extra={"CELLGREEN_EDGE_BUDGET": raw})
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: CELLGREEN_EDGE_BUDGET must be a nonnegative integer, got {raw!r}\n"
        )

    def test_enumeration_budget_exits_three_before_enumerating(
        self, monkeypatch, capsys
    ):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerate_cells was called")

        monkeypatch.setattr(cellgreen.cli, "enumerate_cells", no_enumeration)
        code = cellgreen.cli.main(["verify", "--enumerate", "--max-vertices", "40"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: --max-vertices 40 exceeds the enumeration budget of 8\n"
        )

    @pytest.mark.parametrize("cap", ["-3", "0", "1", "2"])
    def test_enumeration_cap_below_three_exits_two_before_enumerating(
        self, cap, monkeypatch, capsys
    ):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerate_cells was called")

        monkeypatch.setattr(cellgreen.cli, "enumerate_cells", no_enumeration)
        code = cellgreen.cli.main(["verify", "--enumerate", "--max-vertices", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --max-vertices must be at least 3, got {cap}\n"

    def test_enumeration_cap_of_three_checks_cells(self, capsys):
        code = cellgreen.cli.main(["verify", "--enumerate", "--max-vertices", "3"])
        doc = json.loads(capsys.readouterr().out)["verify"]
        assert code == 0
        assert doc["cells_checked"] > 0
        assert doc["all_passed"] is True

    def test_enumeration_budget_admits_eight(self, monkeypatch, capsys):
        seen = []

        def no_cells(theta, max_vertices):
            seen.append(max_vertices)
            return iter(())

        monkeypatch.setattr(cellgreen.cli, "enumerate_cells", no_cells)
        code = cellgreen.cli.main(["verify", "--enumerate", "--max-vertices", "8"])
        assert code == 0
        assert seen == [8]
        assert json.loads(capsys.readouterr().out)["verify"]["cells_checked"] == 0

    SERIES_COMMANDS = [
        ("functions", "--order"),
        ("green", "--order"),
        ("probe", "--order"),
        ("classify", "--series-order"),
    ]

    @pytest.mark.parametrize("command, flag", SERIES_COMMANDS)
    def test_series_budget_exits_three(self, cli, command, flag):
        result = cli(command, "--builtin", "diamond", flag, "1001")
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {flag} 1001 exceeds the series budget of 1000\n"
        )

    @pytest.mark.parametrize("command, flag", SERIES_COMMANDS)
    def test_series_budget_checked_before_the_series(
        self, command, flag, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise AssertionError("the cell was loaded or expanded")

        for name in ("builtin_cell", "cell_functions", "green_series", "classify"):
            monkeypatch.setattr(cellgreen.cli, name, fail)
        code = cellgreen.cli.main([command, "--builtin", "sierpinski", flag, "5000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} 5000 exceeds the series budget of 1000\n"
        )

    def test_series_budget_admits_its_limit(self, cli):
        result = cli("functions", "--builtin", "path2", "--order", "1000")
        body = payload(result)["functions"]
        assert body["order"] == 1000
        assert len(body["f"]["series"]) == 1001

    # verify --max-steps sets the order of verify's series, so it has the
    # series budget.  Under an edge budget of 10, a limit that admits 1001
    # fails at once on path2's approximant, not after a long series, and
    # 1000 gets past the series check to that approximant.
    VERIFY_EDGES_REFUSED = "error: level 9 needs more than 10 edges, budget is 10\n"

    @pytest.mark.parametrize("steps, refused", [
        (1001, "error: --max-steps 1001 exceeds the series budget of 1000\n"),
        (1000, VERIFY_EDGES_REFUSED),
    ], ids=["1001", "1000"])
    def test_max_steps_has_the_series_budget(
        self, steps, refused, monkeypatch, capsys
    ):
        monkeypatch.setenv("CELLGREEN_EDGE_BUDGET", "10")
        argv = ["verify", "--builtin", "path2", "--max-steps", str(steps)]
        assert cellgreen.cli.main(argv) == 3
        assert capsys.readouterr() == ("", refused)

    def test_max_steps_budget_checked_before_enumerating(self, monkeypatch, capsys):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerate_cells was called")

        monkeypatch.setattr(cellgreen.cli, "enumerate_cells", no_enumeration)
        code = cellgreen.cli.main(["verify", "--enumerate", "--max-steps", "1001"])
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: --max-steps 1001 exceeds the series budget of 1000\n"
        )

    @pytest.mark.parametrize("steps, refused", [
        (1001, "error: {}: max_steps 1001 exceeds the series budget of 1000\n"),
        (1000, VERIFY_EDGES_REFUSED),
    ], ids=["1001", "1000"])
    def test_saved_max_steps_has_the_series_budget(
        self, steps, refused, tmp_path, monkeypatch, capsys
    ):
        assert cellgreen.cli.main(
            ["verify", "--builtin", "path2", "--max-steps", "6"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["verify"]["settings"]["max_steps"] = steps
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("CELLGREEN_EDGE_BUDGET", "10")
        assert cellgreen.cli.main(["verify", "--from-report", str(path)]) == 3
        assert capsys.readouterr() == ("", refused.format(path))

    @staticmethod
    def _simulate_unloaded(flags, monkeypatch, capsys):
        """simulate on diamond with loading and walking forbidden."""

        def fail(*args, **kwargs):
            raise AssertionError("the cell was loaded or walked")

        for name in ("builtin_cell", "blowup", "sufficient_approximant", "monte_carlo"):
            monkeypatch.setattr(cellgreen.cli, name, fail)
        code = cellgreen.cli.main(["simulate", "--builtin", "diamond", *flags])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    WALK_REFUSED = (
        "error: max(--trials, 4096) x max(--steps, 1) {} "
        "exceeds the walk budget of 10000000000\n"
    )

    @pytest.mark.parametrize(
        "trials, steps, walk",
        [
            (10**12, 4, 4 * 10**12),
            (1, 10**7, 4096 * 10**7),
            (10**9, 11, 11 * 10**9),
            (10**12, 0, 10**12),
        ],
    )
    def test_walk_budget_exits_three_before_loading(
        self, trials, steps, walk, monkeypatch, capsys
    ):
        flags = ["--trials", str(trials), "--steps", str(steps)]
        refused = (3, self.WALK_REFUSED.format(walk))
        assert self._simulate_unloaded(flags, monkeypatch, capsys) == refused

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_checked_before_loading(self, trials, monkeypatch, capsys):
        flags = ["--trials", str(trials)]
        err = f"error: --trials must be at least 1, got {trials}\n"
        assert self._simulate_unloaded(flags, monkeypatch, capsys) == (2, err)

    @pytest.mark.parametrize("trials, steps", [(10**9, 10), (1, 10**10 // 4096)])
    def test_walk_budget_admits_its_limit(self, trials, steps, monkeypatch, capsys):
        seen = []

        def no_walk(a, n, trials, seed):
            seen.append((n, trials))
            return WalkStats(n, trials, 0, Fraction(0), 0.0, seed)

        monkeypatch.setattr(cellgreen.cli, "monte_carlo", no_walk)
        monkeypatch.setattr(cellgreen.cli, "exact_return_probs", None)
        code = cellgreen.cli.main(
            ["simulate", "--builtin", "diamond", "--level", "1",
             "--trials", str(trials), "--steps", str(steps)]
        )
        assert code == 0
        assert seen == [(steps, trials)]
        assert json.loads(capsys.readouterr().out)["simulate"]["trials"] == trials


class TestSurface:
    """The options of every subcommand, pinned so that a new or removed
    flag shows up as a change to this table."""

    OPTIONS = {
        "validate": ["-h", "--help", "cell", "--builtin"],
        "functions": ["-h", "--help", "cell", "--builtin", "--order"],
        "green": ["-h", "--help", "cell", "--builtin", "--order"],
        "invariants": ["-h", "--help", "cell", "--builtin"],
        "classify": ["-h", "--help", "cell", "--builtin", "--series-order"],
        "verify": [
            "-h", "--help", "cell", "--builtin", "--max-steps", "--enumerate",
            "--max-vertices", "--from-report",
        ],
        "blowup": ["-h", "--help", "cell", "--builtin", "--level", "--emit"],
        "simulate": [
            "-h", "--help", "cell", "--builtin", "--level", "--steps", "--trials",
            "--seed",
        ],
        "probe": ["-h", "--help", "cell", "--builtin", "--points", "--order"],
    }

    def test_options_of_every_subcommand(self):
        parser = cellgreen.cli.build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "subcommand"]
        assert {
            name: [s for a in p._actions for s in a.option_strings or [a.dest]]
            for name, p in sub.choices.items()
        } == self.OPTIONS
        top = [s for a in parser._actions for s in a.option_strings or [a.dest]]
        assert top == ["-h", "--help", "--version", "subcommand"]

    def test_skip_automorphisms_exits_two(self, capsys):
        # Every validation runs the double-transitivity search.
        with pytest.raises(SystemExit) as exc:
            cellgreen.cli.main(
                ["validate", "--skip-automorphisms", "--builtin", "diamond"]
            )
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: unrecognized arguments: --skip-automorphisms" in err

    # The environment variable CELLGREEN_EDGE_BUDGET alone sets the edge
    # budget, and blowup builds only the approximant of the limit graph.
    @pytest.mark.parametrize("args", [
        ["blowup", "--level", "2", "--origin-copies", "2"],
        ["blowup", "--level", "2", "--randomize-identification", "7"],
        ["blowup", "--level", "2", "--edge-budget", "100"],
        ["simulate", "--edge-budget", "100"],
        ["verify", "--edge-budget", "100"],
    ], ids=lambda args: f"{args[0]}{args[-2]}")
    def test_removed_flags_exit_two(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cellgreen.cli.main([*args, "--builtin", "diamond"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: unrecognized arguments: {args[-2]}" in err



class TestLibrarySurface:
    """The parameters of the library entry points, pinned as TestSurface
    pins the flags: each name, with "=" after it when it has a default."""

    PARAMETERS = {
        "validate_cell": ["g"],
        "require_valid": ["g"],
        "cell_functions": ["g"],
        "classify": ["g", "series_order=", "cf="],
        "verify_cell": ["g", "max_steps=", "edge_budget="],
        "blowup": ["g", "k", "edge_budget="],
        "sufficient_approximant": ["g", "n_max", "edge_budget="],
        "format_poly": ["p"],
        "Bracket.approx_str": ["self"],
        "IsolatedRoot.refine": ["self", "width"],
    }

    def test_parameters_of_every_entry_point(self):
        functions = {
            "validate_cell": cellgreen.validate_cell,
            "require_valid": require_valid,
            "cell_functions": cellgreen.cell_functions,
            "classify": cellgreen.classify,
            "verify_cell": cellgreen.verify_cell,
            "blowup": cellgreen.blowup,
            "sufficient_approximant": cellgreen.sufficient_approximant,
            "format_poly": format_poly,
            "Bracket.approx_str": Bracket.approx_str,
            "IsolatedRoot.refine": IsolatedRoot.refine,
        }
        assert {
            name: [
                p.name + ("" if p.default is p.empty else "=")
                for p in inspect.signature(fn).parameters.values()
            ]
            for name, fn in functions.items()
        } == self.PARAMETERS

def readme_section(title: str) -> str:
    """The text of README.md under the heading ``## title``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"## {title}")[1].split("\n## ")[0]


class TestPackage:
    def test_exports_match_the_readme(self):
        library = readme_section("Library")
        listed = library.split("The package exports exactly these names")[1]
        bullets = listed.split("\n\n")[1]
        names = re.findall(r"`(\w+)`", bullets)
        assert sorted(names) == sorted(cellgreen.__all__)
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(cellgreen, name)


class TestReadmeExamples:
    """The README's examples run as written, so it cannot advertise a
    flag or a signature that is gone."""

    def test_library_block_runs(self):
        (block,) = re.findall(r"```python\n(.*?)```", readme_section("Library"), re.S)
        exec(block, {})

    def test_command_line_block_exits_zero(self, tmp_path, monkeypatch, capsys):
        blocks = re.findall(r"```\n(.*?)```", readme_section("Command line"), re.S)
        (block,) = [b for b in blocks if b.startswith("cellgreen ")]
        monkeypatch.chdir(tmp_path)
        for line in block.splitlines():
            prog, *argv = shlex.split(line)
            assert prog == "cellgreen"
            assert cellgreen.cli.main(argv) == 0, line
            assert capsys.readouterr().out
        assert (tmp_path / "level2.txt").read_text().startswith("vertices ")


# The numpy-free subcommands, run one after another in one child.
NUMPY_FREE_CHILD = """
import contextlib, io, sys
import cellgreen
from cellgreen import *
missing = [name for name in cellgreen.__all__ if name not in globals()]
assert not missing, missing
assert "numpy" not in sys.modules, "import cellgreen loaded numpy"
import cellgreen.cli
for args in (
    ["validate", "--builtin", "sierpinski"],
    ["functions", "--builtin", "diamond"],
    ["green", "--builtin", "diamond", "--order", "30"],
    ["invariants", "--builtin", "theta4"],
    ["classify", "--builtin", "sierpinski"],
    ["probe", "--builtin", "diamond", "--order", "30", "--points", "1/2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cellgreen.cli.main(args)
    assert code == 0, (args, code)
    assert "numpy" not in sys.modules, f"{args[0]} loaded numpy"
print("numpy not loaded")
"""

NUMPY_VERIFY_CHILD = """
import contextlib, io, sys
import cellgreen.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cellgreen.cli.main(["verify", "--builtin", "diamond"])
assert code == 0, code
assert "numpy" in sys.modules, "verify ran without numpy"
print("numpy loaded")
"""

# np.unique without an optional output imports numpy.ma, which costs a
# fresh process about 10 ms; simulate's walk takes its degrees otherwise.
NUMPY_MA_SIMULATE_CHILD = """
import contextlib, io, sys
import cellgreen.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cellgreen.cli.main(
        ["simulate", "--builtin", "diamond", "--steps", "40", "--trials", "1000"]
    )
assert code == 0, code
assert "numpy" in sys.modules, "simulate ran without numpy"
assert "numpy.ma" not in sys.modules, "simulate loaded numpy.ma"
print("numpy.ma not loaded")
"""


class TestNumpyLoadsOnlyWhereItRuns:
    """The exact subcommands never import numpy, so they start without
    paying for it.  Each check runs in a child process, since this one has
    numpy loaded already."""

    def test_exact_subcommands_leave_numpy_unloaded(self, python_child):
        result = python_child(NUMPY_FREE_CHILD)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "numpy not loaded\n"

    def test_verify_loads_numpy(self, python_child):
        result = python_child(NUMPY_VERIFY_CHILD)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "numpy loaded\n"

    def test_simulate_leaves_numpy_ma_unloaded(self, python_child):
        result = python_child(NUMPY_MA_SIMULATE_CHILD)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "numpy.ma not loaded\n"
