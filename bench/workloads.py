"""The three workloads: their jobs, built from a seed, and their output checks.

A job is one ``cellgreen`` CLI subcommand run in-process, or one library
call where no subcommand reaches.  Every check compares an output with a
value made by ``oracle`` (which does not import cellgreen) or with a bound
that holds for every correct output.  Checks are plain functions of the
job and its output, so ``test_checks.py`` can feed them corrupted outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import harness
import oracle

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cells.json")

# The builtin cells, as plain data for the oracle: (n, theta, edges).
BUILTINS = {
    "diamond": (6, 2, ((0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5))),
    "path2": (3, 2, ((0, 2), (1, 2))),
    "path3": (4, 2, ((0, 2), (2, 3), (1, 3))),
    "sierpinski": (6, 3, ((0, 3), (0, 4), (3, 4), (1, 3), (1, 5), (3, 5),
                          (2, 4), (2, 5), (4, 5))),
    "theta4": (16, 4, tuple(
        e for clique in ((0, 4, 5, 12), (1, 6, 7, 13), (2, 8, 9, 14),
                         (3, 10, 11, 15), (12, 13, 14, 15))
        for e in ((clique[i], clique[j]) for i in range(4) for j in range(i + 1, 4))
    )),
}

# Probe points must keep the tail bound z^(order+1)/(1-z) below this.
PROBE_TAIL = Fraction(1, 10**6)

# Most jobs of a workload take about the same time, so that the median
# job time does not jump between two jobs of very different length.

# green_deep: (subcommand, builtin, order, probe points).
GREEN_DEEP = (
    ("green", "diamond", 110, None),
    ("probe", "diamond", 120, "1/2,3/4,4/5"),
    ("green", "diamond", 140, None),
    ("green", "sierpinski", 60, None),
    ("probe", "sierpinski", 56, "1/2,2/3,7/10"),
    ("green", "theta4", 60, None),
    ("green", "path2", 80, None),
    ("probe", "path2", 84, "1/2,3/4"),
    ("probe", "path3", 100, "1/2,3/4,4/5"),
    ("green", "path3", 100, None),
)
# Seeded 8-vertex cells, each run as `green --order 64`, drawn from the
# middle half of their cost range.
GREEN_CELLS = 3
GREEN_CELL_COSTS = (0.25, 0.75)

SWEEP_CELLS = 10  # seeded enumerated cells, each run as `verify FILE`
SWEEP_BUILTINS = ("sierpinski", "theta4")

# walk_oracle: approximants, Monte Carlo runs and exact walk counts.
BLOWUPS = (("diamond", 7), ("theta4", 6), ("sierpinski", 9), ("path3", 8))
# (builtin, level, steps, trials); the first runs twice with one seed.
SIMULATIONS = (
    ("diamond", 5, 40, 600_000),
    ("diamond", 6, 64, 400_000),
    ("sierpinski", 7, 32, 800_000),
    ("theta4", 5, 24, 1_000_000),
    ("path2", 10, 64, 400_000),
    ("path3", 8, 48, 500_000),
)
# (builtin, level, steps) for exact_return_probs.
EXACT = (("diamond", 6, 800), ("sierpinski", 8, 300), ("theta4", 5, 340))

WORKLOADS = ("green_deep", "cell_sweep", "walk_oracle")


@dataclass
class Job:
    label: str
    kind: str  # green | probe | verify | blowup | simulate | exact
    cell: tuple  # (n, theta, edges) for the oracle
    argv: list[str] | None = None
    call: object = None  # library job: a callable returning a string
    params: dict = field(default_factory=dict)
    loop: str = "fraction"  # calibration loop whose kind of work the job does


def load_table() -> dict:
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def _table_cell(row) -> tuple:
    return (row["n"], 2, tuple(tuple(e) for e in row["edges"]))


def stratified(rows: list, cost: str, k: int, rng: random.Random,
               within: tuple[float, float] = (0.0, 1.0)) -> list:
    """One row from each of k bands of equal size, ranked by ``cost``.

    Only the share ``within`` of the ranking is used.  Every seed then
    draws about the same total cost, so the seed changes which cells run
    but hardly how much work a run does.
    """
    ranked = sorted(rows, key=lambda r: (r[cost], r["edges"]))
    ranked = ranked[round(within[0] * len(ranked)):round(within[1] * len(ranked))]
    bounds = [round(i * len(ranked) / k) for i in range(k + 1)]
    return [rng.choice(ranked[bounds[i]:bounds[i + 1]]) for i in range(k)]


def _write_cell(workdir: str, label: str, cell: tuple) -> str:
    path = os.path.join(workdir, f"{label}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(harness.cell_text(*cell))
    return path


def _probe_points_ok(order: int, points: str) -> bool:
    return all(
        z ** (order + 1) / (1 - z) <= PROBE_TAIL
        for z in (Fraction(p) for p in points.split(","))
    )


def _green_job(kind, label, source, cell, order, points=None) -> Job:
    argv = [kind, *source, "--order", str(order)]
    if points is not None:
        if not _probe_points_ok(order, points):
            raise ValueError(f"probe points {points} fail the tail bound at order {order}")
        argv += ["--points", points]
    return Job(label, kind, cell, argv=argv, params={"order": order, "points": points})


def build(workload: str, seed: int, workdir: str, tracer=None) -> tuple[list[Job], dict]:
    """Jobs of one workload, and data its checks need; writes cell files.

    This is the input generation that set-up time covers.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "green_deep":
        table = load_table()
        jobs = [
            _green_job(kind, f"{kind}-{name}-{order}", ["--builtin", name],
                       BUILTINS[name], order, points)
            for kind, name, order, points in GREEN_DEEP
        ]
        eligible = [r for r in table["cells"] if "green_ms" in r]
        for i, row in enumerate(stratified(eligible, "green_ms", GREEN_CELLS, rng,
                                           GREEN_CELL_COSTS)):
            cell = _table_cell(row)
            path = _write_cell(workdir, f"deep{i}", cell)
            jobs.append(_green_job("green", f"green-deep{i}-{table['green_order']}",
                                   [path], cell, table["green_order"]))
        return jobs, {}

    if workload == "cell_sweep":
        import cellgreen.cells

        table = load_table()
        # The sample is of the enumerated cells; the checks confirm that
        # the program enumerates exactly the classes of the table.
        span = tracer.span("cells.enumerate_cells") if tracer else contextlib.nullcontext()
        with span:
            enumerated = list(cellgreen.cells.enumerate_cells(2, 8))
        found = [(g.n, g.theta, tuple(sorted(g.edges))) for g in enumerated]
        jobs = []
        for i, row in enumerate(stratified(table["cells"], "verify_ms", SWEEP_CELLS, rng)):
            cell = _table_cell(row)
            path = _write_cell(workdir, f"sweep{i}", cell)
            jobs.append(Job(f"verify-sweep{i}", "verify", cell, argv=["verify", path]))
        for name in SWEEP_BUILTINS:
            jobs.append(Job(f"verify-{name}", "verify", BUILTINS[name],
                            argv=["verify", "--builtin", name]))
        return jobs, {"enumerated": found, "table": table["cells"]}

    if workload == "walk_oracle":
        jobs = []
        for name, level in BLOWUPS:
            jobs.append(Job(f"blowup-{name}-{level}", "blowup", BUILTINS[name],
                            argv=["blowup", "--builtin", name, "--level", str(level)],
                            params={"level": level}))
        for i, (name, level, steps, trials) in enumerate(SIMULATIONS):
            mc_seed = rng.randrange(2**32)
            argv = ["simulate", "--builtin", name, "--level", str(level),
                    "--steps", str(steps), "--trials", str(trials), "--seed", str(mc_seed)]
            params = {"level": level, "steps": steps, "trials": trials, "seed": mc_seed}
            for rep in range(2 if i == 0 else 1):
                jobs.append(Job(f"simulate-{name}-{level}-{rep}", "simulate",
                                BUILTINS[name], argv=list(argv), params=params,
                                loop="numpy"))
        for name, level, steps in EXACT:
            jobs.append(Job(f"exact-{name}-{level}-{steps}", "exact", BUILTINS[name],
                            call=_exact_call(name, level, steps),
                            params={"level": level, "steps": steps}))
        return jobs, {}

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _exact_call(name: str, level: int, steps: int):
    def call() -> str:
        import cellgreen

        a = cellgreen.blowup(cellgreen.builtin_cell(name), level)
        probs = cellgreen.exact_return_probs(a, steps).probs
        return json.dumps({"safe_horizon": a.safe_horizon,
                           "probs": [str(p) for p in probs]})

    return call


# -- checks ---------------------------------------------------------------------------


class Expected:
    """Oracle values, computed once per cell and length and then reused."""

    def __init__(self):
        self._probs: dict = {}

    def probs(self, cell: tuple, order: int) -> list[Fraction]:
        """Return probabilities of the infinite graph for n = 0..order."""
        got = self._probs.get(cell)
        if got is None or len(got) <= order:
            level = oracle.level_for(*cell, order)
            adj, defects = oracle.approximant(*cell, level)
            if oracle.safe_horizon(adj, defects) < order:
                raise ValueError("oracle approximant too shallow")
            got = self._probs[cell] = oracle.return_probs(adj, order)
        return got[: order + 1]


def check_green(job: Job, out: str, exp: Expected) -> list[str]:
    order = job.params["order"]
    coeffs = [Fraction(c) for c in json.loads(out)["green"]["coefficients"]]
    if len(coeffs) != order + 1:
        return [f"{len(coeffs)} coefficients, expected {order + 1}"]
    problems = []
    if any(not 0 <= c <= 1 for c in coeffs):
        problems.append("a coefficient lies outside [0, 1]")
    n, _theta, edges = job.cell
    if oracle.is_bipartite(n, edges) and any(coeffs[1::2]):
        problems.append("an odd coefficient of a bipartite cell is not 0")
    want = exp.probs(job.cell, order)
    bad = [n for n in range(order + 1) if coeffs[n] != want[n]]
    if bad:
        problems.append(f"coefficient {bad[0]} differs from the walk count")
    if oracle.expected_outcome(*job.cell) == "AlgebraicStar":
        if coeffs != oracle.star_coefficients(order):
            problems.append("path cell coefficients are not C(2m,m)/4^m")
    return problems


def check_probe(job: Job, out: str, exp: Expected) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["z", "partial_sum", "tail_bound", "scaled"]:
        return ["probe output has no CSV header"]
    points = [Fraction(p) for p in job.params["points"].split(",")]
    body = rows[1:]
    if [Fraction(r[0]) for r in body] != points:
        return ["probe rows do not match the requested points"]
    want = exp.probs(job.cell, job.params["order"])
    problems = []
    last = None
    for (z_text, g_text, _tail, _scaled), z in zip(body, points):
        g = float(g_text)
        if not 1 <= g <= 1 / (1 - z):
            problems.append(f"G({z_text}) = {g} lies outside [1, 1/(1-z)]")
        if last is not None and g <= last:
            problems.append(f"G does not increase at z = {z_text}")
        last = g
        exact = float(sum(c * z**n for n, c in enumerate(want)))
        if not math.isclose(g, exact, rel_tol=1e-12):
            problems.append(f"G({z_text}) = {g} differs from the walk-count sum {exact}")
    return problems


def check_verify(job: Job, out: str, exp: Expected) -> list[str]:
    report = json.loads(out)["verify"]["report"]
    problems = []
    if not report["all_passed"]:
        failed = [i["name"] for i in report["items"] if not i["passed"]]
        problems.append(f"report items failed: {', '.join(failed)}")
    want = oracle.expected_outcome(*job.cell)
    details = [i["detail"] for i in report["items"] if i["name"] == "classification"]
    got = re.search(r"outcome (\w+)", details[0]) if details else None
    if got is None or got.group(1) != want:
        problems.append(f"classification {got and got.group(1)}, expected {want}")
    return problems


def check_blowup(job: Job, out: str, exp: Expected) -> list[str]:
    a = json.loads(out)["approximant"]
    want = oracle.approximant_size(*job.cell, job.params["level"])
    got = (a["vertices"], a["edges"], a["safe_horizon"])
    if got != want:
        return [f"approximant (vertices, edges, horizon) = {got}, expected {want}"]
    return []


def check_simulate(job: Job, out: str, exp: Expected) -> list[str]:
    sim = json.loads(out)["simulate"]
    steps, trials = job.params["steps"], job.params["trials"]
    if (sim["n"], sim["trials"], sim["seed"]) != (steps, trials, job.params["seed"]):
        return ["simulate ran other settings than requested"]
    p = exp.probs(job.cell, steps)[steps]
    mean = trials * p
    sigma = math.sqrt(trials * p * (1 - p))
    if abs(sim["hits"] - mean) > oracle.MC_SIGMAS * sigma:
        return [f"{sim['hits']} hits, expected {float(mean):.1f}"
                f" +- {oracle.MC_SIGMAS} x {sigma:.1f}"]
    return []


def check_exact(job: Job, out: str, exp: Expected) -> list[str]:
    doc = json.loads(out)
    steps = job.params["steps"]
    if doc["safe_horizon"] < steps:
        return ["the approximant's safe horizon does not cover the steps"]
    probs = [Fraction(p) for p in doc["probs"]]
    want = exp.probs(job.cell, steps)
    bad = [n for n in range(steps + 1) if n >= len(probs) or probs[n] != want[n]]
    if bad:
        return [f"return probability {bad[0]} differs from the walk count"]
    return []


CHECKS = {
    "green": check_green,
    "probe": check_probe,
    "verify": check_verify,
    "blowup": check_blowup,
    "simulate": check_simulate,
    "exact": check_exact,
}


def check_enumeration(enumerated: list, table: list) -> list[str]:
    """The enumerated cells against their known count, brute-force
    canonical forms and A001349."""
    keys = [oracle.canonical_cell(*c) for c in enumerated]
    problems = []
    if len(keys) != oracle.TWO_BOUNDARY_CELLS:
        problems.append(f"{len(keys)} cells enumerated, expected {oracle.TWO_BOUNDARY_CELLS}")
    if len(set(keys)) != len(keys):
        problems.append("two enumerated cells are isomorphic")
    if set(keys) != {oracle.canonical_cell(*_table_cell(r)) for r in table}:
        problems.append("the enumerated cells differ from the recorded classes")
    interiors: dict[int, set] = {}
    for cell in enumerated:
        m, edges = oracle.interior_graph(*cell)
        interiors.setdefault(m, set()).add(oracle.canonical_graph(m, edges))
    counts = {m: len(s) for m, s in sorted(interiors.items())}
    if counts != oracle.CONNECTED_GRAPHS:
        problems.append(f"interior graph classes {counts}, expected {oracle.CONNECTED_GRAPHS}")
    return problems


_ELAPSED = re.compile(r'"elapsed_seconds": [-0-9.e]+')


def stable_output(out: str) -> str:
    """An output with its one timing field blanked, for comparing runs."""
    return _ELAPSED.sub('"elapsed_seconds": null', out)


def check(jobs: list[Job], outputs: list, extra: dict) -> list[str]:
    """Every problem found in the outputs of jobs that exited 0.

    ``outputs`` holds (exit code, stdout) per job.  A failed job is counted
    apart and its output is not checked.
    """
    exp = Expected()
    problems = []
    twins: dict[str, str] = {}
    for job, (code, out) in zip(jobs, outputs):
        if code != 0:
            continue
        try:
            found = CHECKS[job.kind](job, out, exp)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if job.kind == "simulate":
            key = " ".join(job.argv)
            if key in twins and twins[key] != stable_output(out):
                found.append("the same seed gave different hits")
            twins[key] = stable_output(out)
        problems += [f"{job.label}: {p}" for p in found]
    if "enumerated" in extra:
        problems += [f"enumeration: {p}" for p in check_enumeration(
            extra["enumerated"], extra["table"])]
    return problems
