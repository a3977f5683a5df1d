"""Self-test of the benchmark's output checks.

    python3 -m pytest -q bench/test_checks.py

Each check first accepts a real cellgreen output, made here on a small
input, and then rejects the same output with one fault planted in it.  A
check that let a corrupted output through would be vacuous.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import BUILTINS, Job  # noqa: E402

harness.import_cellgreen()


def run(argv):
    code, _cpu, _wall, out, err = harness.run_cli(argv)
    assert code == 0, err
    return out


def edit_json(out: str, edit) -> str:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def exp():
    return workloads.Expected()


def green_job(name, order, kind="green", points=None):
    return workloads._green_job(kind, name, ["--builtin", name], BUILTINS[name], order, points)


def test_green_rejects_one_coefficient_off_by_2_pow_minus_40(exp):
    job = green_job("diamond", 30)
    out = run(job.argv)
    assert workloads.check_green(job, out, exp) == []

    def nudge(doc):
        c = doc["green"]["coefficients"]
        c[12] = str(Fraction(c[12]) + Fraction(1, 2**40))

    assert workloads.check_green(job, edit_json(out, nudge), exp)


def test_green_rejects_odd_coefficient_and_out_of_range(exp):
    job = green_job("diamond", 30)
    out = run(job.argv)

    def odd(doc):
        doc["green"]["coefficients"][7] = "1/1024"

    def big(doc):
        doc["green"]["coefficients"][4] = "5/4"

    assert any("odd" in p for p in workloads.check_green(job, edit_json(out, odd), exp))
    assert any("[0, 1]" in p for p in workloads.check_green(job, edit_json(out, big), exp))


def test_green_path_cell_checked_against_central_binomials(exp):
    job = green_job("path3", 24)
    out = run(job.argv)
    assert workloads.check_green(job, out, exp) == []

    def nudge(doc):
        c = doc["green"]["coefficients"]
        c[10] = str(Fraction(c[10]) - Fraction(1, 2**40))

    found = workloads.check_green(job, edit_json(out, nudge), exp)
    assert any("C(2m,m)" in p for p in found)


def test_probe_rejects_bad_rows(exp):
    job = green_job("diamond", 100, kind="probe", points="1/2,3/4")
    out = run(job.argv)
    assert workloads.check_probe(job, out, exp) == []
    header, first, second = out.strip().split("\n")
    z, g, tail, scaled = second.split(",")
    below = f"{header}\n{first}\n{z},0.999,{tail},{scaled}\n"
    off = f"{header}\n{first}\n{z},{float(g) * (1 + 1e-9)!r},{tail},{scaled}\n"
    swapped = f"{header}\n{second}\n{first}\n"
    assert any("outside" in p for p in workloads.check_probe(job, below, exp))
    assert any("increase" in p for p in workloads.check_probe(job, below, exp))
    assert any("walk-count sum" in p for p in workloads.check_probe(job, off, exp))
    assert workloads.check_probe(job, swapped, exp)


def test_verify_rejects_swapped_verdict_and_failed_item(exp):
    job = Job("verify-diamond", "verify", BUILTINS["diamond"],
              argv=["verify", "--builtin", "diamond"])
    out = run(job.argv)
    assert workloads.check_verify(job, out, exp) == []

    def swap(doc):
        for item in doc["verify"]["report"]["items"]:
            if item["name"] == "classification":
                item["detail"] = "outcome AlgebraicStar"

    def fail(doc):
        doc["verify"]["report"]["items"][0]["passed"] = False
        doc["verify"]["report"]["all_passed"] = False

    found = workloads.check_verify(job, edit_json(out, swap), exp)
    assert any("classification" in p for p in found)
    found = workloads.check_verify(job, edit_json(out, fail), exp)
    assert any("failed" in p for p in found)


def test_blowup_rejects_wrong_sizes(exp):
    job = Job("blowup", "blowup", BUILTINS["sierpinski"],
              argv=["blowup", "--builtin", "sierpinski", "--level", "3"], params={"level": 3})
    out = run(job.argv)
    assert workloads.check_blowup(job, out, exp) == []
    for key in ("vertices", "edges", "safe_horizon"):
        def bump(doc, key=key):
            doc["approximant"][key] += 1

        assert workloads.check_blowup(job, edit_json(out, bump), exp)


def test_simulate_rejects_hits_off_by_ten_sigma_and_unequal_twins(exp):
    argv = ["simulate", "--builtin", "diamond", "--level", "3", "--steps", "8",
            "--trials", "20000", "--seed", "11"]
    job = Job("sim", "simulate", BUILTINS["diamond"], argv=argv,
              params={"level": 3, "steps": 8, "trials": 20000, "seed": 11})
    out = run(argv)
    assert workloads.check_simulate(job, out, exp) == []
    p = exp.probs(job.cell, 8)[8]
    sigma = (20000 * p * (1 - p)) ** 0.5

    def shift(doc):
        doc["simulate"]["hits"] += int(10 * sigma) + 1

    shifted = edit_json(out, shift)
    assert workloads.check_simulate(job, shifted, exp)
    twin = Job("sim2", "simulate", job.cell, argv=argv, params=job.params)
    found = workloads.check([job, twin], [(0, out), (0, shifted)], {})
    assert any("same seed" in p for p in found)
    assert workloads.check([job, twin], [(0, out), (0, out)], {}) == []


def test_exact_rejects_one_probability_off(exp):
    job = Job("exact", "exact", BUILTINS["theta4"], call=workloads._exact_call("theta4", 3, 40),
              params={"level": 3, "steps": 40})
    out = job.call()
    assert workloads.check_exact(job, out, exp) == []

    def nudge(doc):
        doc["probs"][20] = str(Fraction(doc["probs"][20]) + Fraction(1, 2**40))

    assert workloads.check_exact(job, edit_json(out, nudge), exp)


def test_enumeration_rejects_duplicate_and_missing_classes():
    table = workloads.load_table()["cells"]
    cells = [workloads._table_cell(r) for r in table]
    assert workloads.check_enumeration(cells, table) == []
    # A relabelled copy of a cell is isomorphic to it.
    n, theta, edges = cells[-1]
    swap = {0: 1, 1: 0}
    copy = (n, theta, tuple(sorted(
        tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges)))
    found = workloads.check_enumeration(cells + [copy], table)
    assert any("isomorphic" in p for p in found)
    assert any("737 cells" in p for p in found)
    # Dropping every cell built on one interior graph loses a class of A001349.
    gone = oracle.canonical_graph(*oracle.interior_graph(*cells[-1]))
    kept = [c for c in cells if oracle.canonical_graph(*oracle.interior_graph(*c)) != gone]
    found = workloads.check_enumeration(kept, table)
    assert any("recorded" in p for p in found)
    assert any("interior" in p for p in found)


def test_failed_job_is_not_checked_but_counted_by_the_worker(exp):
    job = green_job("diamond", 10)
    assert workloads.check([job], [(2, "not json")], {}) == []
    assert workloads.check([job], [(0, "not json")], {})
    # Rejected arguments end the job, not the round.
    assert harness.run_cli(["green", "--builtin", "diamond", "--bogus"])[0] == 2


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "green_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
