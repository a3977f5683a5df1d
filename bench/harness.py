"""Running cellgreen in-process and timing it.

The benchmark runs from the root of a source checkout; cellgreen is
imported from ``src/`` there, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch space for cell files and traces; listed in the root .gitignore.
WORK = os.path.join(ROOT, ".bench_work")


def import_cellgreen():
    """Import cellgreen and its CLI from the checkout's ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cellgreen
    import cellgreen.cli

    if not os.path.abspath(cellgreen.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cellgreen was imported from {cellgreen.__file__}, not {SRC}")
    return cellgreen


def cell_text(n: int, theta: int, edges) -> str:
    """A cell in the plain-text cell file format."""
    lines = [f"vertices {n}", "boundary " + " ".join(map(str, range(theta)))]
    lines += [f"edge {a} {b}" for a, b in sorted(edges)]
    return "\n".join(lines) + "\n"


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# Seconds each calibration loop takes on a quiet machine: the unit that
# every reported time is scaled to.
REFERENCE_LOOP_S = 0.011


class Loops:
    """Two fixed calibration loops that track how fast the machine is.

    Co-tenants of a shared host slow big-integer code and numpy's random
    gathers by different amounts, so there is one loop of each kind:
    ``fraction`` sums 1/i over Fractions, ``numpy`` walks 2^15 random
    walkers on a fixed random graph the way ``monte_carlo`` does.  Neither
    calls cellgreen.  The collector is off while they run, so the loops'
    times do not depend on what the jobs left alive.  Their CPU time is
    that of the calling thread alone, so that a thread left busy by a job
    cannot slow the loops and shrink the scaled times.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._deg = rng.integers(1, 5, size=50_000)
        self._nbr = rng.integers(0, 50_000, size=(50_000, 4))

    def _fraction(self) -> None:
        total = Fraction(0)
        for i in range(1, 2500):
            total += Fraction(1, i)

    def _numpy(self) -> None:
        np = self._np
        rng = np.random.Generator(np.random.PCG64(5))
        pos = np.zeros(1 << 15, dtype=np.int64)
        for _ in range(12):
            pos = self._nbr[pos, rng.integers(0, self._deg[pos])]

    def run(self) -> dict[str, tuple[float, float]]:
        """CPU and wall seconds of each loop, by loop name."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            out = {}
            for name, loop in (("fraction", self._fraction), ("numpy", self._numpy)):
                wall0, cpu0 = time.perf_counter(), time.thread_time()
                loop()
                out[name] = (time.thread_time() - cpu0, time.perf_counter() - wall0)
            return out
        finally:
            if enabled:
                gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A time rescaled to the reference speed by the loops around it."""
    return seconds * 2 * REFERENCE_LOOP_S / (before + after)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_cli(argv: list[str]) -> tuple[int, float, float, str, str]:
    """``cellgreen.cli.main(argv)`` with stdout and stderr captured.

    Returns (exit code, CPU seconds, wall seconds, stdout, stderr).  An
    exception that escapes ``main`` is what a user would see as a
    traceback with exit code 1, so it is reported that way.
    """
    import cellgreen.cli

    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cellgreen.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback in the CLI: the job failed
        code = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    cpu, wall = cpu_seconds() - cpu0, time.perf_counter() - wall0
    return code, cpu, wall, out.getvalue(), err.getvalue()


def run_call(fn) -> tuple[int, float, float, str, str]:
    """A library call ``fn() -> str`` timed and reported like ``run_cli``."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        out, code, err = fn(), 0, ""
    except Exception as exc:
        out, code, err = "", 1, f"{type(exc).__name__}: {exc}\n"
    return code, cpu_seconds() - cpu0, time.perf_counter() - wall0, out, err
