"""Command-line interface.

Every subcommand reads a cell (from a file or the builtin registry),
runs one library operation, and returns the library's objects for
``main`` to print as one JSON report.  ``to_json`` alone decides the
layout: rationals as "p/q" strings, real intervals as {"low", "high"}
pairs plus a float "approx", polynomials as text, and a report's fields
in declaration order.  ``main`` alone lifts the int-to-str digit limit,
and only while it prints.  Reports are byte-identical across runs except
for the elapsed_seconds field.  Exit codes: 0 success, 1 internal error,
2 invalid input or failed validation, 3 a budget exceeded (approximant
edges, enumerated cell size, series order, or walk steps).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import Bracket, Poly, format_poly
from .algebra.series import expand_scaled, scaled_fractions
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
    CellReport,
    cell_from_json,
    cell_to_json,
    cell_to_text,
    enumerate_cells,
    parse_cell,
)
from .classify import classify, verify_cell
from .greenkernel import PropertyReport, cell_functions, radius, residue_scale
from .harmonic import AlphaMuReport, alpha_from_harmonic, harmonic_function
from .iteration import (
    green_series,
    invariants,
    probe_tail_bounds,
    singular_prefactor_probe,
)
from .registry import builtin_cell, builtin_names

ENV_EDGE_BUDGET = "CELLGREEN_EDGE_BUDGET"

# Cells of n vertices have m = n - 2 interior vertices.
# connected_graph_classes(m) keeps an unseen flag for each of the
# 2^(m(m-1)/2) edge masks and a table of ceil(m(m-1)/16) x 256 x m! image
# words: 32 KB and 1.5 MB at m = 6, 2 MB and 15 MB at m = 7 (9 vertices),
# 268 MB and 165 MB at m = 8.  8 vertices is the largest enumeration the
# test sweep and the benchmark run.
MAX_ENUMERATE_VERTICES = 8

# --order, --series-order and verify --max-steps, which sets the order of
# verify's series and the length of its walk oracle.  `green` on diamond at
# order 800 takes about 3.4 CPU s, sierpinski at 600 about 12 s, theta4 at
# 800 about 29 s (2-core x86-64, Python 3.11, under 40 MB).  Tests and the
# benchmark stay at order <= 400.
MAX_ORDER = 1000

# simulate walker steps, max(--trials, 4096) x max(--steps, 1).  A step
# costs the occupied vertices, at most the trials, times their degree:
# about 20 us with one walker, and 0.05-0.4 ms with 4096 to 10^6 walkers
# spread out, so a walk is charged at least 4096 walkers a step.  A walk
# of no steps still costs about 30 us.  The dearest walk within the budget
# is about 2.4e6 steps of 4096 walkers spread over a whole approximant:
# 0.33 ms a step on sierpinski level 8, so about 14 CPU minutes (2-core
# x86-64, numpy 2.4).  The benchmark's largest is 2.56e7.
MAX_WALK_STEPS = 10**10


def _default_budget() -> int:
    raw = os.environ.get(ENV_EDGE_BUDGET)
    if raw is None:
        return DEFAULT_EDGE_BUDGET
    if not raw.strip().isdecimal():
        raise CellError(
            f"{ENV_EDGE_BUDGET} must be a nonnegative integer, got {raw!r}"
        )
    return int(raw)


def _one_input(args) -> None:
    """Reject two inputs at once: the run would have to ignore one."""
    given = [
        label
        for label, value in (
            ("a cell file", args.cell),
            ("--builtin", args.builtin),
            ("--from-report", getattr(args, "from_report", None)),
            ("--enumerate", getattr(args, "enumerate", False)),
        )
        if value
    ]
    if len(given) > 1:
        raise CellError(f"{' and '.join(given)} exclude each other: give one input")


def _load_cell(args) -> tuple[CellGraph, dict]:
    if args.builtin:
        g = builtin_cell(args.builtin)
        text = cell_to_text(g)
        source = f"builtin:{args.builtin}"
    elif args.cell:
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


def _within(flag: str, value: int, limit: int, budget: str) -> int:
    if value > limit:
        raise BudgetError(f"{flag} {value} exceeds the {budget} budget of {limit}")
    return value


def _series_order(flag: str, value: int) -> int:
    return _within(flag, _nonnegative(flag, value), MAX_ORDER, "series")


# The properties that to_json prints after a report's fields.
_DERIVED = {
    CellReport: ("valid",),
    PropertyReport: ("all_passed",),
    AlphaMuReport: ("strict", "consistent"),
}


def to_json(x):
    """The JSON value of a report body, of its objects and of their parts.

    A Bracket, an IsolatedRoot too, prints only its interval, so it comes
    before the dataclass case; a dataclass prints its fields in declaration
    order and then the properties that _DERIVED names for its class.
    """
    if isinstance(x, dict):
        return {key: to_json(value) for key, value in x.items()}
    if isinstance(x, Bracket):
        return {"low": str(x.low), "high": str(x.high), "approx": float(x)}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Poly):
        return format_poly(x)
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [to_json(value) for value in x]
    if dataclasses.is_dataclass(x):
        names = [f.name for f in dataclasses.fields(x)]
        names += _DERIVED.get(type(x), ())
        return {name: to_json(getattr(x, name)) for name in names}
    return x


def _ratfunc_json(r, scale: int, series_count: int) -> dict:
    ints, den = expand_scaled(r, scale, series_count)
    return {"num": r.num, "den": r.den, "series": scaled_fractions(ints, den, scale)}


def _pole_json(func, rho) -> dict | None:
    """The pole rho of func (None: no pole), refined for its residue scale."""
    if rho is None:
        return None
    rho, kappa = residue_scale(func, rho)
    return {
        "rho_low": rho.low,
        "rho_high": rho.high,
        "rho_approx": float(rho),
        "pole_order": rho.multiplicity,
        "residue_scale": kappa,
    }


# -- subcommands ------------------------------------------------------------
# Each checks its flags, loads the cell and returns (input meta, cell or None,
# body keys, exit code) for main to report; probe prints CSV, returns the code.


def cmd_validate(args):
    g, meta = _load_cell(args)
    return meta, g, {"report": g.report}, 0 if g.report.valid else 2


def cmd_functions(args):
    count = _series_order("--order", args.order) + 1
    g, meta = _load_cell(args)
    cf = cell_functions(g)
    functions = {
        "order": args.order,
        "f": _ratfunc_json(cf.f, cf.scale, count),
        "d": _ratfunc_json(cf.d, cf.scale, count),
        "r": _ratfunc_json(cf.r, cf.scale, count),
        "spectral_f": _pole_json(cf.f, cf.rho_f),
        "spectral_d": _pole_json(cf.d, cf.rho_d),
        "spectral_r": _pole_json(cf.r, radius(cf.r)),
    }
    return meta, g, {"functions": functions}, 0


def cmd_green(args):
    order = _series_order("--order", args.order)
    g, meta = _load_cell(args)
    gs = green_series(cell_functions(g), order)
    green = {
        "order": gs.order,
        "factors_used": gs.factors_used,
        "coefficients": gs.coefficients(),
    }
    return meta, g, {"green": green}, 0


def cmd_invariants(args):
    g, meta = _load_cell(args)
    cf = cell_functions(g)
    body = {"invariants": invariants(cf)}
    if g.theta == 2:
        h = harmonic_function(g)
        alpha = alpha_from_harmonic(h)
        body["harmonic"] = h
        body["alpha_from_harmonic"] = alpha
        body["alpha_mu"] = AlphaMuReport(alpha, g.report.mu, g.report.is_path)
    return meta, g, body, 0


def cmd_classify(args):
    series_order = _series_order("--series-order", args.series_order)
    g, meta = _load_cell(args)
    verdict = classify(g, series_order=series_order)
    return meta, g, {"verdict": verdict}, 0 if verdict.outcome != "Invalid" else 2


def _verify_payload(g: CellGraph, args) -> dict:
    report = verify_cell(g, max_steps=args.max_steps, edge_budget=args.edge_budget)
    return {"settings": {"max_steps": args.max_steps}, "report": report}


def _verify_from_report(args):
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
    if type(args.max_steps) is not int or args.max_steps < 0:
        raise CellError(
            f"{args.from_report}: max_steps must be a nonnegative "
            f"integer, got {json.dumps(args.max_steps)}"
        )
    _within(f"{args.from_report}: max_steps", args.max_steps, MAX_ORDER, "series")
    g = cell_from_json(cell_doc, name=name)
    fresh = _verify_payload(g, args)
    new_items = {i.name: i.passed for i in fresh["report"].items}
    diffs = sorted({name for name, _ in old_items.items() ^ new_items.items()})
    body = {"verify": fresh, "round_trip": {"match": not diffs, "differences": diffs}}
    return {"source": args.from_report, "sha256": None}, g, body, 0 if not diffs else 2


def _verify_enumerate(args):
    if args.max_vertices < 3:
        # Every cell has at least 3 vertices: a smaller cap checks none.
        raise ValueError(
            f"--max-vertices must be at least 3, got {args.max_vertices}"
        )
    _within("--max-vertices", args.max_vertices, MAX_ENUMERATE_VERTICES, "enumeration")
    checked = 0
    failures = []
    for g in enumerate_cells(2, args.max_vertices):
        report = _verify_payload(g, args)["report"]
        checked += 1
        if not report.all_passed:
            failed = [i for i in report.items if not i.passed]
            failures.append({"cell": cell_to_json(g), "failed": failed})
    meta = {"source": f"enumerate:max_vertices={args.max_vertices}", "sha256": None}
    verify = {
        "settings": {
            "max_steps": args.max_steps,
            "max_vertices": args.max_vertices,
        },
        "cells_checked": checked,
        "all_passed": not failures,
        "failures": failures,
    }
    return meta, None, {"verify": verify}, 0 if not failures else 2


def _verify_one(args):
    g, meta = _load_cell(args)
    verify = _verify_payload(g, args)
    return meta, g, {"verify": verify}, 0 if verify["report"].all_passed else 2


def cmd_verify(args):
    # Both flags default to None, so that a flag the run would ignore is
    # refused rather than dropped: a saved report sets its own max_steps.
    if args.max_vertices is not None and not args.enumerate:
        raise ValueError("--max-vertices applies only with --enumerate")
    if args.from_report:
        if args.max_steps is not None:
            raise ValueError("--max-steps does not apply with --from-report")
        return _verify_from_report(args)
    if args.max_steps is None:
        args.max_steps = 12
    _series_order("--max-steps", args.max_steps)
    if args.enumerate:
        if args.max_vertices is None:
            args.max_vertices = 6
        return _verify_enumerate(args)
    return _verify_one(args)


def cmd_blowup(args):
    g, meta = _load_cell(args)
    a = blowup(g, args.level, edge_budget=args.edge_budget)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            write_approximant(a, fh)
    approximant = {
        "level": a.level,
        "origin": a.origin,
        "vertices": a.num_vertices,
        "edges": a.num_edges,
        "defect_set": a.defect_set,
        "safe_horizon": a.safe_horizon,
        "emitted": args.emit,
    }
    return meta, g, {"approximant": approximant}, 0


def cmd_simulate(args):
    _nonnegative("--steps", args.steps)
    _nonnegative("--seed", args.seed)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    walk = max(args.trials, 4096) * max(args.steps, 1)
    _within("max(--trials, 4096) x max(--steps, 1)", walk, MAX_WALK_STEPS, "walk")
    g, meta = _load_cell(args)
    if args.level is None:
        a = sufficient_approximant(g, args.steps, edge_budget=args.edge_budget)
    else:
        a = blowup(g, args.level, edge_budget=args.edge_budget)
    stats = monte_carlo(a, args.steps, args.trials, args.seed)
    sim = {
        "n": stats.n,
        "trials": stats.trials,
        "hits": stats.hits,
        "estimate": stats.estimate,
        "estimate_approx": float(stats.estimate),
        "std_err": stats.std_err,
        "seed": stats.seed,
        "level": a.level,
        "safe_horizon": a.safe_horizon,
        "within_horizon": args.steps <= a.safe_horizon,
    }
    if sim["within_horizon"]:
        exact = exact_return_probs(a, args.steps).probs[args.steps]
        sim["exact"] = exact
        err = stats.std_err
        dev = abs(float(stats.estimate) - float(exact))
        sim["deviation_sigmas"] = None if err == 0 else round(dev / err, 3)
    return meta, g, {"simulate": sim}, 0


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
    if not pts:
        raise ValueError("--points must name at least one point")
    return pts


def cmd_probe(args) -> int:
    # The points need only the order, so a bad one fails before the series.
    points = _parse_points(args.points)
    order = _series_order("--order", args.order)
    probe_tail_bounds(points, order)
    g, _meta = _load_cell(args)
    cf = cell_functions(g)
    inv = invariants(cf)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    parse_args leaves a parser as it was, so every ``main`` call of one
    process (tests, the benchmark worker, a program that embeds the CLI)
    shares it; a one-shot run of the command builds it once either way.
    """
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
    p.add_argument("--max-steps", type=int, help="oracle walk-length cap (default 12)")
    p.add_argument("--enumerate", action="store_true", help="run over all small cells")
    p.add_argument("--max-vertices", type=int, help="cap for --enumerate (default 6)")
    p.add_argument("--from-report", help="re-run a saved report and compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blowup", help="build a finite approximant")
    _add_input_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--emit", help="write the approximant edge list to this file")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("simulate", help="Monte Carlo return-probability estimate")
    _add_input_args(p)
    p.add_argument("--level", type=int, default=None, help="approximant level (default: smallest safe)")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
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
    started = time.monotonic()
    try:
        _one_input(args)
        # Read here, inside the error handling: a bad value is an input error.
        args.edge_budget = _default_budget()
        result = args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CellError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, int):
        return result
    meta, g, body, code = result
    doc = {
        "schema": 1,
        "tool": "cellgreen",
        "version": __version__,
        "command": args.subcommand,
        "input": meta,
    }
    if g is not None:
        doc["cell"] = {**cell_to_json(g), "name": g.name}
    doc.update(body)
    # The exact numbers of a long cell pass the default int-to-str limit
    # (4300 digits, CVE-2020-10735), which guards the parsing of untrusted
    # text; the cell, flags and points were parsed under it above.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = to_json(doc)
        doc["elapsed_seconds"] = round(time.monotonic() - started, 6)
        text = json.dumps(doc, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
