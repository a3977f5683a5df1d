"""End-to-end runs of the command line tool: in a subprocess, or in-process
where a test replaces a function that the CLI calls."""

import hashlib
import json
import re
from pathlib import Path

import pytest

import cellgreen
import cellgreen.cli

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
        ],
    )
    def test_negative_counts_exit_two(self, cli, args, flag, value):
        result = cli(*args, "--builtin", "diamond")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {flag} must be nonnegative, got {value}\n"


class TestVerifyGolden:
    # sha256 of each builtin's `verify` JSON (sorted keys, elapsed_seconds
    # removed), recorded before the determinants and root isolation moved
    # to integer evaluation and sign bisection.
    GOLDEN = {
        "diamond": "914831100b541424be338954f1f74a1fd2c81da04cd81cf6e94d49f638886a28",
        "path2": "6ad10d30a27ea599bfeee33072ea24fb31776a21eeb7464a735600a9d132d49b",
        "path3": "4c1baf3bcfd015fdb370a3a14339b18a97044af616afb42d2a541f1661e71d40",
        "sierpinski": "d05b3e3a693ef09ea538517310ac09b7fc084c5ca8844d8b0924cd6938304a5c",
        "theta4": "1144bc912fc61b9f1b4a407413e97b40362582befbd20f4cee543ff61970fdd9",
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
