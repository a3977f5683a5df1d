"""Shared fixtures: the exhaustive small-cell sweep and builtin pipelines.

The sweep fixture walks every two-boundary cell with at most eight
vertices once per session and records everything the property suites
need, so the exhaustive tests share one computation instead of repeating
it per test.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from cellgreen import (
    CellFunctions,
    CellGraph,
    CellInvariants,
    CellReport,
    PropertyReport,
    Verdict,
    builtin_cell,
    builtin_names,
    cell_functions,
    classify,
    enumerate_cells,
    exact_return_probs,
    green_series,
    harmonic_function,
    invariants,
    sufficient_approximant,
    validate_cell,
)
from cellgreen.cells import adjacency_rows
from cellgreen.greenkernel import spectral_property_report
from cellgreen.harmonic import alpha_from_harmonic
from routes import PowerSeries, fraction_rows, fraction_series, green_entry

ORACLE_STEP_CAP = 20


@dataclass(frozen=True)
class SweepRecord:
    cell: CellGraph
    report: CellReport
    cf: CellFunctions
    inv: CellInvariants
    spectral: PropertyReport
    det_equal: bool
    harmonic_alpha: Fraction
    verdict: Verdict
    oracle_level: int
    oracle_n: int
    series_prefix: tuple[Fraction, ...]
    oracle_probs: tuple[Fraction, ...]

    @property
    def oracle_match(self) -> bool:
        return self.series_prefix == self.oracle_probs


@dataclass(frozen=True)
class Sweep:
    records: tuple[SweepRecord, ...]
    oracle_seconds: float


def _sweep_one(g: CellGraph) -> tuple[SweepRecord, float]:
    report = validate_cell(g)
    cf = cell_functions(g, report=report)
    verdict = classify(g, cf=cf)
    spectral = spectral_property_report(cf)

    t0 = time.perf_counter()
    appx = sufficient_approximant(g, ORACLE_STEP_CAP)
    n_cap = min(ORACLE_STEP_CAP, appx.safe_horizon)
    probs = exact_return_probs(appx, n_cap)
    gs = green_series(cf, n_cap)
    oracle_dt = time.perf_counter() - t0

    rec = SweepRecord(
        cell=g,
        report=report,
        cf=cf,
        inv=verdict.invariants,
        spectral=spectral,
        det_equal=cf.det_f == cf.det_d,
        harmonic_alpha=alpha_from_harmonic(harmonic_function(g)),
        verdict=verdict,
        oracle_level=appx.level,
        oracle_n=n_cap,
        series_prefix=gs.coefficients(),
        oracle_probs=probs.probs,
    )
    return rec, oracle_dt


@pytest.fixture(scope="session")
def enumerated_cells() -> tuple[CellGraph, ...]:
    return tuple(enumerate_cells(2, 8))


@pytest.fixture(scope="session")
def sweep(enumerated_cells) -> Sweep:
    records = []
    oracle_seconds = 0.0
    for g in enumerated_cells:
        rec, dt = _sweep_one(g)
        records.append(rec)
        oracle_seconds += dt
    return Sweep(records=tuple(records), oracle_seconds=oracle_seconds)


@pytest.fixture(scope="session")
def builtin_cells() -> dict[str, CellGraph]:
    return {name: builtin_cell(name) for name in builtin_names()}


@pytest.fixture(scope="session")
def builtin_functions(builtin_cells) -> dict[str, CellFunctions]:
    return {name: cell_functions(g) for name, g in builtin_cells.items()}


@pytest.fixture(scope="session")
def builtin_invariants(builtin_functions) -> dict[str, CellInvariants]:
    return {name: invariants(cf) for name, cf in builtin_functions.items()}


@pytest.fixture(scope="session")
def chained_triangles_text() -> str:
    """Four triangles in a chain, the boundary in the first three: distances
    2 (0 to 1), 3 (0 to 2) and 2 (1 to 2).  Only its automorphisms make it
    invalid, so a build that skips that check must reject it itself."""
    triangles = ((0, 3, 4), (4, 1, 5), (5, 2, 6), (6, 7, 8))
    lines = ["vertices 9", "boundary 0 1 2"]
    for a, b, c in triangles:
        lines += [f"edge {a} {b}", f"edge {a} {c}", f"edge {b} {c}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def long_path_text() -> str:
    """A path cell of 1,200 edges: the automorphism search maps its 1,201
    vertices one by one, more than the interpreter's default recursion
    limit of 1,000 frames."""
    chain = [0, *range(2, 1201), 1]
    lines = ["vertices 1201", "boundary 0 1"]
    lines += [f"edge {a} {b}" for a, b in zip(chain, chain[1:])]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def triangle_strip_text() -> str:
    """1,100 triangles {x_i, y_i, x_(i+1)} in a chain, theta = 3, with the
    boundary at y_0, y_550 and y_1099: its clique partition chooses 1,100
    cliques one by one.  No automorphism moves y_550 to an end, so it is
    invalid."""
    ids: dict[tuple[str, int], int] = {}
    for key in (("y", 0), ("y", 550), ("y", 1099)):
        ids[key] = len(ids)
    edges = []
    for i in range(1100):
        keys = (("x", i), ("y", i), ("x", i + 1))
        x0, y, x1 = (ids.setdefault(k, len(ids)) for k in keys)
        edges += [(x0, y), (y, x1), (x0, x1)]
    lines = [f"vertices {len(ids)}", "boundary 0 1 2"]
    lines += [f"edge {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def cell_green_series():
    """Return-walk series of a finite cell at its origin, `count` coefficients."""

    def series(g: CellGraph, count: int) -> PowerSeries:
        t = fraction_rows(g.degrees(), adjacency_rows(g))
        return fraction_series(green_entry(t, 0, 0), count)

    return series


# -- call counting ----------------------------------------------------------


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a cellgreen function, wherever cellgreen refers to it.

    ``count_calls("cellgreen.cells", "validate_cell")`` wraps the function in
    every cellgreen module that holds it (callers import it by name) and
    returns the list that each call appends its arguments to.
    """

    def install(module: str, name: str) -> list:
        real = getattr(importlib.import_module(module), name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "cellgreen" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install


# -- command line runner ----------------------------------------------------


_CLI_STUB = "from cellgreen.cli import main; raise SystemExit(main())"
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(
    source: str, *args: str, env_extra: dict | None = None
) -> subprocess.CompletedProcess:
    """Run ``python -c source *args`` in a child process that imports
    cellgreen from this checkout's ``src``, ahead of any other
    ``PYTHONPATH`` entry.  The child holds none of the modules that this
    process has loaded, numpy among them."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")])
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in a child process (see ``run_python``)."""
    return run_python(_CLI_STUB, *args, env_extra=env_extra)


@pytest.fixture(scope="session")
def cli():
    return run_cli


@pytest.fixture(scope="session")
def python_child():
    return run_python


# -- acceptance reporting ---------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


def _record(tag: str, passed: bool, detail: str) -> None:
    _ACCEPTANCE_LINES.append(
        f"{tag}: {'PASS' if passed else 'FAIL'}  {detail}"
    )


@pytest.fixture
def record_acceptance():
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


try:
    from hypothesis import settings

    settings.register_profile("suite", derandomize=True, max_examples=60)
    settings.load_profile("suite")
except ImportError:
    pass
