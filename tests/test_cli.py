"""End-to-end runs of the command line tool: in a subprocess, or in-process
where a test replaces a function that the CLI calls."""

import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cellgreen
import cellgreen.cli
from cellgreen.blowup import WalkStats

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

    def test_budget_flag_exits_three(self, cli):
        result = cli(
            "blowup", "--builtin", "diamond", "--level", "4", "--edge-budget", "100"
        )
        assert result.returncode == 3
        assert "error" in result.stderr

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
                "--trials", "20000", "--seed", "7", "--workers", "2",
            )
        )
        sim = doc["simulate"]
        assert sim["trials"] == 20000
        assert sim["within_horizon"] is True
        assert sim["exact"] == "2/9"
        assert sim["deviation_sigmas"] < 5
        assert sim["seed"] == 7

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
            "error: invalid chain.cell: boundary vertices lie at distances "
            "[2, 3], not all equal, so no safe horizon is known\n"
        )

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
            (["blowup", "--level", "2", "--edge-budget", "-5"], "--edge-budget", -5),
            (["simulate", "--edge-budget", "-5"], "--edge-budget", -5),
            (["verify", "--edge-budget", "-5"], "--edge-budget", -5),
            (["simulate", "--seed", "-3"], "--seed", -3),
            (["simulate", "--trials", "-1", "--steps", "10000000"], "--trials", -1),
        ],
    )
    def test_negative_counts_exit_two(self, cli, args, flag, value):
        result = cli(*args, "--builtin", "diamond")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {flag} must be nonnegative, got {value}\n"


class TestVerifyGolden:
    # sha256 of each builtin's `verify` JSON (sorted keys, elapsed_seconds
    # removed), re-recorded when expansion_between_fixed_points became a
    # Sturm certificate: the JSON before differs only in that item's detail
    # string, which read "... at 32 rational points in (1, rho_d)".
    GOLDEN = {
        "diamond": "9b7cbf0cd759e36af0b046e3a435f22f0ec6bf182490f8bdc9941e6ab28d7229",
        "path2": "5def892793348642061322d5a06518633b76e53e1e0ddecd76337259e2b78b52",
        "path3": "9e406286ab7d811a2fff1934d1e15e3dcca7b662d729d6e336954ecaee3e4457",
        "sierpinski": "3ff81cacfdcf90f280a1746dcfdddac6243d826d5299cca2a4302db0bac8646d",
        "theta4": "fcc75e7a3fa1a8621ede6f30c5b4526a52b2d63c9021eb5c2e82de279a36c873",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_verify_report_digest(self, name, capsys):
        assert cellgreen.cli.main(["verify", "--builtin", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[name]


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

    def test_flag_overrides_budget_variable(self, cli):
        result = cli(
            "blowup", "--builtin", "diamond", "--level", "2", "--edge-budget", "100",
            env_extra={"CELLGREEN_EDGE_BUDGET": "10"},
        )
        assert payload(result)["approximant"]["edges"] == 36

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

    @pytest.mark.parametrize(
        "trials, steps, walk",
        [(10**12, 4, 4 * 10**12), (1, 10**7, 4096 * 10**7), (10**9, 11, 11 * 10**9)],
    )
    def test_walk_budget_exits_three_before_loading(
        self, trials, steps, walk, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise AssertionError("the cell was loaded or walked")

        for name in ("builtin_cell", "blowup", "sufficient_approximant", "monte_carlo"):
            monkeypatch.setattr(cellgreen.cli, name, fail)
        code = cellgreen.cli.main(
            ["simulate", "--builtin", "diamond", "--trials", str(trials),
             "--steps", str(steps)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: --trials x --steps (at least 4096 a step) {walk} exceeds "
            "the walk budget of 10000000000\n"
        )

    @pytest.mark.parametrize("trials, steps", [(10**9, 10), (1, 10**10 // 4096)])
    def test_walk_budget_admits_its_limit(self, trials, steps, monkeypatch, capsys):
        seen = []

        def no_walk(a, n, trials, seed, workers):
            seen.append((n, trials))
            return WalkStats(n, trials, 0, Fraction(0), 0.0, seed, workers)

        monkeypatch.setattr(cellgreen.cli, "monte_carlo", no_walk)
        monkeypatch.setattr(cellgreen.cli, "exact_return_probs", None)
        code = cellgreen.cli.main(
            ["simulate", "--builtin", "diamond", "--level", "1",
             "--trials", str(trials), "--steps", str(steps)]
        )
        assert code == 0
        assert seen == [(steps, trials)]
        assert json.loads(capsys.readouterr().out)["simulate"]["trials"] == trials


class TestPackage:
    def test_exports_match_the_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme.split("## Library")[1].split("\n## ")[0]
        listed = library.split("The package exports exactly these names")[1]
        bullets = listed.split("\n\n")[1]
        names = re.findall(r"`(\w+)`", bullets)
        assert sorted(names) == sorted(cellgreen.__all__)
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(cellgreen, name)
