"""Command-line interface.

Every subcommand reads a cell (from a file or the builtin registry),
runs one library operation, and prints a JSON report with a stable layout:
rationals as "p/q" strings, real intervals as {"low", "high"} pairs, plus
float approximations marked as such.  Reports are byte-identical across
runs except for the elapsed_seconds field.  Exit codes: 0 success,
1 internal error, 2 invalid input or failed validation, 3 a budget
exceeded (approximant edges, enumerated cell size, or series order).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import format_poly, series_from_ratfunc
from .blowup import (
    DEFAULT_EDGE_BUDGET,
    BudgetError,
    blowup,
    exact_return_probs,
    monte_carlo,
    sufficient_approximant,
    write_approximant,
)
from .cells import (
    CellError,
    CellGraph,
    cell_from_json,
    cell_to_json,
    cell_to_text,
    enumerate_cells,
    parse_cell,
    validate_cell,
)
from .classify import classify, verify_cell
from .greenkernel import cell_functions
from .harmonic import alpha_from_harmonic, harmonic_function, verify_alpha_mu
from .iteration import (
    green_series,
    invariants,
    probe_tail_bounds,
    singular_prefactor_probe,
)
from .registry import builtin_cell, builtin_names

ENV_EDGE_BUDGET = "CELLGREEN_EDGE_BUDGET"

# Cells of n vertices have m = n - 2 interior vertices, and
# connected_graph_classes(m) scans 2^(m(m-1)/2) edge masks plus m!
# relabelings per class.  Its seen set holds every connected labeled graph:
# 26,704 masks at m = 6, but 1,866,256 at m = 7 (9 vertices).  8 vertices is
# the largest enumeration the test sweep and the benchmark run.
MAX_ENUMERATE_VERTICES = 8

# --order and --series-order.  Diamond at order 800 takes about 13 CPU s,
# sierpinski at 600 about 29 s, theta4 at 800 about 82 s (2-core x86-64,
# Python 3.11, under 35 MB).  Tests and the benchmark stay at order <= 400.
MAX_ORDER = 1000


def _default_budget() -> int:
    raw = os.environ.get(ENV_EDGE_BUDGET)
    if raw is None:
        return DEFAULT_EDGE_BUDGET
    if not raw.strip().isdecimal():
        raise CellError(
            f"{ENV_EDGE_BUDGET} must be a nonnegative integer, got {raw!r}"
        )
    return int(raw)


def _load_cell(args) -> tuple[CellGraph, dict]:
    if getattr(args, "builtin", None):
        g = builtin_cell(args.builtin)
        text = cell_to_text(g)
        source = f"builtin:{args.builtin}"
    elif getattr(args, "cell", None):
        with open(args.cell, "r", encoding="utf-8") as fh:
            text = fh.read()
        g = parse_cell(text, name=os.path.basename(args.cell))
        source = args.cell
    else:
        raise CellError("no input: give a cell file or --builtin NAME")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    meta = {"source": source, "sha256": digest}
    return g, meta


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


def _series_order(flag: str, value: int) -> int:
    _nonnegative(flag, value)
    if value > MAX_ORDER:
        raise BudgetError(
            f"{flag} {value} exceeds the series budget of {MAX_ORDER}"
        )
    return value


def _envelope(command: str, meta: dict, g: CellGraph | None) -> dict:
    doc = {
        "schema": 1,
        "tool": "cellgreen",
        "version": __version__,
        "command": command,
        "input": meta,
    }
    if g is not None:
        cell = cell_to_json(g)
        cell["name"] = g.name
        doc["cell"] = cell
    return doc


def _emit(doc: dict, started: float) -> None:
    doc["elapsed_seconds"] = round(time.monotonic() - started, 6)
    print(json.dumps(doc, indent=2))


def _ratfunc_json(r, series_count: int) -> dict:
    return {
        "num": format_poly(r.num),
        "den": format_poly(r.den),
        "series": [str(c) for c in series_from_ratfunc(r, series_count).coeffs],
    }


# -- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    started = time.monotonic()
    g, meta = _load_cell(args)
    report = validate_cell(g, check_automorphisms=not args.skip_automorphisms)
    doc = _envelope("validate", meta, g)
    doc["report"] = report.to_json()
    _emit(doc, started)
    return 0 if report.valid else 2


def cmd_functions(args) -> int:
    started = time.monotonic()
    count = _series_order("--order", args.order) + 1
    g, meta = _load_cell(args)
    cf = cell_functions(g)
    doc = _envelope("functions", meta, g)
    doc["functions"] = {
        "order": args.order,
        "f": _ratfunc_json(cf.f, count),
        "d": _ratfunc_json(cf.d, count),
        "r": _ratfunc_json(cf.r, count),
        "spectral_f": cf.spectral_f.to_json(),
        "spectral_d": cf.spectral_d.to_json(),
        "spectral_r": None if cf.spectral_r is None else cf.spectral_r.to_json(),
    }
    _emit(doc, started)
    return 0


def cmd_green(args) -> int:
    started = time.monotonic()
    order = _series_order("--order", args.order)
    g, meta = _load_cell(args)
    cf = cell_functions(g)
    gs = green_series(cf, order)
    doc = _envelope("green", meta, g)
    doc["green"] = {
        "order": gs.order,
        "factors_used": gs.factors_used,
        "coefficients": [str(c) for c in gs.coefficients()],
    }
    _emit(doc, started)
    return 0


def cmd_invariants(args) -> int:
    started = time.monotonic()
    g, meta = _load_cell(args)
    cf = cell_functions(g)
    inv = invariants(g, cf)
    doc = _envelope("invariants", meta, g)
    doc["invariants"] = inv.to_json()
    if g.theta == 2:
        h = harmonic_function(g, validate=False)
        alpha = alpha_from_harmonic(h)
        doc["harmonic"] = h.to_json()
        doc["alpha_from_harmonic"] = str(alpha)
        doc["alpha_mu"] = verify_alpha_mu(cf.report, alpha).to_json()
    _emit(doc, started)
    return 0


def cmd_classify(args) -> int:
    started = time.monotonic()
    series_order = _series_order("--series-order", args.series_order)
    g, meta = _load_cell(args)
    verdict = classify(g, series_order=series_order)
    doc = _envelope("classify", meta, g)
    doc["verdict"] = verdict.to_json()
    _emit(doc, started)
    return 0 if verdict.outcome != "Invalid" else 2


def _verify_payload(g: CellGraph, args) -> dict:
    report = verify_cell(g, max_steps=args.max_steps, edge_budget=args.edge_budget)
    return {
        "settings": {"max_steps": args.max_steps},
        "report": report.to_json(),
    }


def cmd_verify(args) -> int:
    started = time.monotonic()
    _nonnegative("--max-steps", args.max_steps)
    _nonnegative("--edge-budget", args.edge_budget)
    if args.from_report:
        with open(args.from_report, "r", encoding="utf-8") as fh:
            old = json.load(fh)
        try:
            cell_doc = old["cell"]
            name = cell_doc.get("name")
            args.max_steps = old["verify"]["settings"]["max_steps"]
            old_items = {
                i["name"]: i["passed"] for i in old["verify"]["report"]["items"]
            }
        except KeyError as exc:
            raise CellError(
                f"{args.from_report} is not a verify report: no field {exc}"
            ) from None
        except (AttributeError, TypeError):
            raise CellError(
                f"{args.from_report} is not a verify report: wrong layout"
            ) from None
        steps = args.max_steps
        if type(steps) is not int or steps < 0:
            raise CellError(
                f"{args.from_report}: max_steps must be a nonnegative "
                f"integer, got {json.dumps(steps)}"
            )
        g = cell_from_json(cell_doc, name=name)
        fresh = _verify_payload(g, args)
        new_items = {
            i["name"]: i["passed"] for i in fresh["report"]["items"]
        }
        diffs = sorted(
            set(old_items.items()) ^ set(new_items.items())
        )
        doc = _envelope("verify", {"source": args.from_report, "sha256": None}, g)
        doc["verify"] = fresh
        doc["round_trip"] = {"match": not diffs, "differences": [d[0] for d in diffs]}
        _emit(doc, started)
        return 0 if not diffs else 2

    if args.enumerate:
        if args.max_vertices < 3:
            # Every cell has at least 3 vertices: a smaller cap checks none.
            raise ValueError(
                f"--max-vertices must be at least 3, got {args.max_vertices}"
            )
        if args.max_vertices > MAX_ENUMERATE_VERTICES:
            raise BudgetError(
                f"--max-vertices {args.max_vertices} exceeds the enumeration "
                f"budget of {MAX_ENUMERATE_VERTICES}"
            )
        checked = 0
        failures = []
        for g in enumerate_cells(2, args.max_vertices):
            report = verify_cell(
                g, max_steps=args.max_steps, edge_budget=args.edge_budget
            )
            checked += 1
            if not report.all_passed:
                failures.append(
                    {
                        "cell": cell_to_json(g),
                        "failed": [
                            i.to_json() for i in report.items if not i.passed
                        ],
                    }
                )
        doc = _envelope(
            "verify", {"source": f"enumerate:max_vertices={args.max_vertices}", "sha256": None}, None
        )
        doc["verify"] = {
            "settings": {
                "max_steps": args.max_steps,
                "max_vertices": args.max_vertices,
            },
            "cells_checked": checked,
            "all_passed": not failures,
            "failures": failures,
        }
        _emit(doc, started)
        return 0 if not failures else 2

    g, meta = _load_cell(args)
    doc = _envelope("verify", meta, g)
    doc["verify"] = _verify_payload(g, args)
    _emit(doc, started)
    return 0 if doc["verify"]["report"]["all_passed"] else 2


def cmd_blowup(args) -> int:
    started = time.monotonic()
    _nonnegative("--edge-budget", args.edge_budget)
    g, meta = _load_cell(args)
    a = blowup(
        g,
        args.level,
        edge_budget=args.edge_budget,
        origin_copies=args.origin_copies,
        randomize_identification=args.randomize_identification,
    )
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            write_approximant(a, fh)
    doc = _envelope("blowup", meta, g)
    doc["approximant"] = {
        "level": a.level,
        "origin": a.origin,
        "vertices": a.num_vertices,
        "edges": a.num_edges,
        "defect_set": sorted(a.defect_set),
        "safe_horizon": a.safe_horizon,
        "emitted": args.emit,
    }
    _emit(doc, started)
    return 0


def cmd_simulate(args) -> int:
    started = time.monotonic()
    _nonnegative("--steps", args.steps)
    _nonnegative("--seed", args.seed)
    _nonnegative("--edge-budget", args.edge_budget)
    g, meta = _load_cell(args)
    if args.level is None:
        a = sufficient_approximant(g, args.steps, edge_budget=args.edge_budget)
    else:
        a = blowup(g, args.level, edge_budget=args.edge_budget)
    stats = monte_carlo(
        a, args.steps, args.trials, args.seed, workers=args.workers
    )
    doc = _envelope("simulate", meta, g)
    doc["simulate"] = stats.to_json()
    doc["simulate"]["level"] = a.level
    doc["simulate"]["safe_horizon"] = a.safe_horizon
    doc["simulate"]["within_horizon"] = args.steps <= a.safe_horizon
    if args.steps <= a.safe_horizon:
        exact = exact_return_probs(a, args.steps).probs[args.steps]
        doc["simulate"]["exact"] = str(exact)
        err = stats.std_err
        dev = abs(float(stats.estimate) - float(exact))
        doc["simulate"]["deviation_sigmas"] = (
            None if err == 0 else round(dev / err, 3)
        )
    _emit(doc, started)
    return 0


def _parse_points(raw: str) -> list[Fraction]:
    pts = []
    for tok in raw.split(","):
        tok = tok.strip()
        if tok:
            try:
                pts.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"probe point {tok!r} is not a rational number"
                ) from None
    return pts


def cmd_probe(args) -> int:
    # The points need only the order, so a bad one fails before the series.
    points = _parse_points(args.points)
    order = _series_order("--order", args.order)
    probe_tail_bounds(points, order)
    g, _meta = _load_cell(args)
    cf = cell_functions(g)
    inv = invariants(g, cf)
    gs = green_series(cf, order)
    rows = singular_prefactor_probe(gs, inv, points)
    out = ["z,partial_sum,tail_bound,scaled"]
    for row in rows:
        out.append(
            f"{row.z},{float(row.partial_sum)!r},{float(row.tail_bound)!r},{row.scaled!r}"
        )
    print("\n".join(out))
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("cell", nargs="?", help="cell file (text or JSON)")
    p.add_argument(
        "--builtin",
        choices=builtin_names(),
        help="use a builtin cell instead of a file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellgreen",
        description=(
            "Exact Green's functions, growth invariants, and classification "
            "for symmetrically self-similar graphs given by a finite cell."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check the cell axioms")
    _add_input_args(p)
    p.add_argument(
        "--skip-automorphisms",
        action="store_true",
        help="skip the boundary double-transitivity search",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("functions", help="return/transition/first-return functions")
    _add_input_args(p)
    p.add_argument("--order", type=int, default=12, help="series coefficients through z^ORDER")
    p.set_defaults(func=cmd_functions)

    p = sub.add_parser("green", help="Green's series of the infinite graph")
    _add_input_args(p)
    p.add_argument("--order", type=int, default=30, help="coefficients through z^ORDER")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("invariants", help="mu, tau, alpha, eta, radii")
    _add_input_args(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("classify", help="algebraic/transcendental verdict")
    _add_input_args(p)
    p.add_argument("--series-order", type=int, default=50)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="full property suite")
    _add_input_args(p)
    p.add_argument("--max-steps", type=int, default=12, help="oracle walk-length cap")
    p.add_argument("--enumerate", action="store_true", help="run over all small cells")
    p.add_argument("--max-vertices", type=int, default=6, help="cap for --enumerate")
    p.add_argument("--from-report", help="re-run a saved report and compare")
    p.add_argument("--edge-budget", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blowup", help="build a finite approximant")
    _add_input_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--emit", help="write the approximant edge list to this file")
    p.add_argument("--origin-copies", type=int, default=1)
    p.add_argument(
        "--randomize-identification",
        type=int,
        default=None,
        metavar="SEED",
        help="shuffle clique-to-boundary bijections with this seed",
    )
    p.add_argument("--edge-budget", type=int)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("simulate", help="Monte Carlo return-probability estimate")
    _add_input_args(p)
    p.add_argument("--level", type=int, default=None, help="approximant level (default: smallest safe)")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="split the trials over this many seeded streams, run one "
        "after another in this process",
    )
    p.add_argument("--edge-budget", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probe", help="singular prefactor table (CSV)")
    _add_input_args(p)
    p.add_argument("--points", default="1/2,3/4,9/10", help="comma-separated rationals in (0,1)")
    p.add_argument("--order", type=int, default=200, help="series truncation order")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Read here, inside the error handling: a bad value is an input error.
        budget = _default_budget()
        if "edge_budget" in vars(args) and args.edge_budget is None:
            args.edge_budget = budget
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CellError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
