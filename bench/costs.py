"""Re-create ``bench/cells.json``: the enumerated cells and their job costs.

    python3 bench/costs.py

The file lists every two-boundary cell with at most 8 vertices that
``cellgreen.cells.enumerate_cells(2, 8)`` yields, in the benchmark's own
canonical labelling, with the CPU milliseconds of ``cellgreen verify`` on
it and, for the 8-vertex cells that ``green_deep`` may draw, of
``cellgreen green --order 64``: the least of two runs in one process,
rescaled to the reference speed as the benchmark's own times are.  The
workloads draw one cell from each band of equal cost, so that every seed
gets about the same amount of work.  The costs steer only that draw; no
output is checked against them.  The cell list doubles as the expected
enumeration: ``cell_sweep`` checks that the program enumerates exactly
these classes.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import oracle  # noqa: E402

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cells.json")
GREEN_ORDER = 64


def green_eligible(n: int, theta: int, edges) -> bool:
    """8-vertex cells whose order-64 oracle approximant stays small.

    A boundary distance of 2 would need level 6, and mu^6 edges; distance
    3 or more needs level 4, at most 17^4 edges.
    """
    return n == 8 and oracle.bfs(oracle.neighbours(n, edges), 0)[1] >= 3


def cost_ms(loops: harness.Loops, argv: list[str]) -> int:
    """Least of two runs, in milliseconds at the reference speed."""
    times = []
    for _ in range(2):
        before = loops.run()["fraction"][0]
        code, cpu, _, _, err = harness.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} failed: {err}")
        times.append(harness.scaled(cpu, before, loops.run()["fraction"][0]))
    return round(min(times) * 1000)


def main() -> int:
    harness.import_cellgreen()
    from cellgreen.cells import enumerate_cells

    loops = harness.Loops()
    os.makedirs(harness.WORK, exist_ok=True)
    path = os.path.join(harness.WORK, "costs-cell.txt")
    rows = []
    for g in enumerate_cells(2, 8):
        n, enc = oracle.canonical_cell(g.n, g.theta, sorted(g.edges))[0::2]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(harness.cell_text(n, 2, enc))
        row = {"n": n, "edges": [list(e) for e in enc],
               "verify_ms": cost_ms(loops, ["verify", path])}
        if green_eligible(n, 2, enc):
            row["green_ms"] = cost_ms(loops, ["green", path, "--order", str(GREEN_ORDER)])
        rows.append(row)
        print(len(rows), row["verify_ms"], row.get("green_ms"), file=sys.stderr)
    os.remove(path)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump({"green_order": GREEN_ORDER, "cells": rows}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
