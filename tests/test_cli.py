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
from cellgreen.cells import cell_to_text

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

    def test_long_path_exits_zero(self, cli, tmp_path, long_path_text):
        path = tmp_path / "path1200.cell"
        path.write_text(long_path_text)
        doc = payload(cli("validate", str(path)))
        assert doc["report"]["valid"] is True
        assert doc["report"]["doubly_transitive"] is True

    @pytest.mark.parametrize("flags", [[], ["--skip-automorphisms"]])
    def test_long_triangle_strip_gets_a_report(
        self, cli, tmp_path, triangle_strip_text, flags
    ):
        path = tmp_path / "strip1100.cell"
        path.write_text(triangle_strip_text)
        result = cli("validate", str(path), *flags)
        assert result.returncode == (0 if flags else 2), result.stderr
        report = json.loads(result.stdout)["report"]
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
    # removed), re-recorded when the recursion_crosscheck item was dropped:
    # the JSON before differs only in that item, which followed
    # oracle_equivalence, and in the functional_residual detail, which read
    # "G - f*(G over d) vanishes through z^40".
    GOLDEN = {
        "diamond": "884b5cfb60bfb2c94724c4a329643a0df800ef89cc357cfd0b2af357e2fe5cdf",
        "path2": "c73d568f6569cf3637eb8e33224e948ee7b6f196df37663922a666611cccb0c3",
        "path3": "5e0f35d013be17d373d6cbf3a8daf08d89c5cb4b5c13edaee9ba796e1bad2354",
        "sierpinski": "e28520450dc7624dffb077761fa2dc566990fcc01e9a6e7032db875f343e5b61",
        "theta4": "937645c9dae43f1e56d17acd89689dbd777a739b1e5a2def5b96236ebaec1a37",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_verify_report_digest(self, name, capsys):
        assert cellgreen.cli.main(["verify", "--builtin", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_seconds"]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[name]


class TestOutputGolden:
    # sha256 of each JSON subcommand's output (sorted keys, elapsed_seconds
    # removed) on the five builtins and on one cell file, recorded before the
    # subcommands' shared steps moved into main.  The simulate digests were
    # recorded again when the count walk replaced the per-walker walk; the
    # path2 run happens to give the same hits under both walks.
    ARGS = {
        "validate": ["validate"],
        "functions": ["functions", "--order", "8"],
        "green": ["green", "--order", "30"],
        "invariants": ["invariants"],
        "classify": ["classify"],
        "blowup": ["blowup", "--level", "2"],
        "simulate": [
            "simulate", "--steps", "4", "--trials", "20000", "--seed", "7",
            "--workers", "2",
        ],
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
            "diamond": "651e4680e442a5d7f22f4a17c404d05228f3db67d89ff2ce5a8dbfa9ebc1dfee",
            "path2": "8535e821c56f088f38c389693f46241e48747d2ba8ac3f49a5d852bf0acfd61f",
            "path3": "fb5d7d49b800fe09cec69505f33149e6bf9e12457eeac5537422ca3b979c9e1b",
            "sierpinski": "e50b6110b96405ab760cd810c7067c8115b963d755282d6225927594b5fd28be",
            "theta4": "b56118a058d632bdd0c5a8b74d680df64954e512261bc114466ebe4fda5e19ed",
            "cell file": "cbb5efbd1cdf19427e9c555fd588b1eac43de5e61a1ee780aa93ebbdf4100619",
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
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[command][source]

    # sha256 over every 7th cell of enumerate_cells(2, 8) of the same
    # per-report text, each cell read from one file, recorded while
    # CellFunctions still carried a spectral record of f, d and r.
    ENUMERATED = {
        "functions": ["functions", "--order", "12"],
        "invariants": ["invariants"],
    }
    ENUMERATED_GOLDEN = {
        "functions": "834fbd6a2f22fec2818dce5b0e81769210d801c037e51ca761032d808a07b54c",
        "invariants": "7dd19c23fc29e677aa8d5bb51177a358aa02ac564c86d7b6603c1db4e655aa4f",
    }

    @pytest.mark.parametrize("command", sorted(ENUMERATED))
    def test_enumerated_digest(
        self, command, enumerated_cells, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for g in enumerated_cells[::7]:
            (tmp_path / "cell.txt").write_text(cell_to_text(g))
            assert cellgreen.cli.main(self.ENUMERATED[command] + ["cell.txt"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsed_seconds"]
            digest.update(json.dumps(doc, sort_keys=True).encode())
        assert digest.hexdigest() == self.ENUMERATED_GOLDEN[command]

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
        "error: max(--trials, 4096 x --workers) x max(--steps, 1) {} "
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

    @pytest.mark.parametrize(
        "workers, code, err",
        [
            (10**7, 3, WALK_REFUSED.format(4096 * 10**7 * 4)),
            (0, 2, "error: --workers must be at least 1, got 0\n"),
            (-2, 2, "error: --workers must be at least 1, got -2\n"),
        ],
    )
    def test_workers_checked_before_loading(
        self, workers, code, err, monkeypatch, capsys
    ):
        flags = ["--workers", str(workers)]
        assert self._simulate_unloaded(flags, monkeypatch, capsys) == (code, err)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_checked_before_loading(self, trials, monkeypatch, capsys):
        flags = ["--trials", str(trials)]
        err = f"error: --trials must be at least 1, got {trials}\n"
        assert self._simulate_unloaded(flags, monkeypatch, capsys) == (2, err)

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
