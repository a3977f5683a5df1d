"""Spans around cellgreen's public functions, recorded from outside.

``install`` replaces each traced function by a wrapper everywhere cellgreen
looks it up: in every ``cellgreen`` module that holds a reference to it
(``cli``, ``classify`` and ``iteration`` each import ``cell_functions``,
and the package attribute ``cellgreen.blowup`` is the function, not the
module), or on its class for methods.  The source under ``src/`` is not
touched.  Spans keep name, start, end and parent in flat arrays until the
run ends; times are process CPU seconds.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array


def _bits(gs) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for c in gs.coefficients())


# (span name, module, attribute, class or None, counters from the result).
# Counters map a metric suffix to a function of (args, kwargs, result).
TARGETS = (
    ("cells.validate_cell", "cellgreen.cells", "validate_cell", None, {}),
    ("cells.parse_cell", "cellgreen.cells", "parse_cell", None, {}),
    ("matrix.det_bareiss", "cellgreen.algebra.matrix", "det_bareiss", None, {}),
    ("matrix.solve_linear", "cellgreen.algebra.matrix", "solve_linear", None, {}),
    ("roots.smallest_positive_root", "cellgreen.algebra.roots",
     "smallest_positive_root", None, {}),
    ("roots.count_roots", "cellgreen.algebra.roots", "count_roots", None, {}),
    ("roots.refine", "cellgreen.algebra.roots", "refine", "IsolatedRoot", {}),
    ("series.mul", "cellgreen.algebra.series", "__mul__", "PowerSeries", {}),
    ("series.mul", "cellgreen.algebra.series", "__rmul__", "PowerSeries", {}),
    ("series.compose", "cellgreen.algebra.series", "compose", "PowerSeries", {}),
    ("series.from_ratfunc", "cellgreen.algebra.series", "series_from_ratfunc",
     None, {}),
    ("greenkernel.cell_functions", "cellgreen.greenkernel", "cell_functions",
     None, {}),
    ("greenkernel.radius", "cellgreen.greenkernel", "radius", None, {}),
    ("greenkernel.spectral_property_report", "cellgreen.greenkernel",
     "spectral_property_report", None, {}),
    ("greenkernel.modified_determinants", "cellgreen.greenkernel",
     "modified_determinants", None, {}),
    ("harmonic.harmonic_function", "cellgreen.harmonic", "harmonic_function",
     None, {}),
    ("iteration.green_series", "cellgreen.iteration", "green_series", None, {
        "factors_used": lambda a, k, r: r.factors_used,
        "out_bits": lambda a, k, r: _bits(r),
    }),
    ("iteration.green_series_recursion", "cellgreen.iteration",
     "green_series_recursion", None, {}),
    ("iteration.functional_residual", "cellgreen.iteration",
     "functional_residual", None, {}),
    ("iteration.invariants", "cellgreen.iteration", "invariants", None, {}),
    ("iteration.singular_prefactor_probe", "cellgreen.iteration",
     "singular_prefactor_probe", None, {}),
    ("blowup.blowup", "cellgreen.blowup", "blowup", None, {
        "edges_built": lambda a, k, r: r.num_edges,
    }),
    ("blowup.sufficient_level", "cellgreen.blowup", "sufficient_level", None, {}),
    ("blowup.exact_return_probs", "cellgreen.blowup", "exact_return_probs",
     None, {}),
    ("blowup.monte_carlo", "cellgreen.blowup", "monte_carlo", None, {
        "walk_steps": lambda a, k, r: r.trials * r.n,
    }),
    ("classify.classify", "cellgreen.classify", "classify", None, {}),
    ("classify.verify_cell", "cellgreen.classify", "verify_cell", None, {}),
    ("cli.main", "cellgreen.cli", "main", None, {}),
)

# Per-layer metrics printed by a traced run: (name, unit).  Each is a
# count (".calls" and the named counters), self CPU time (".self_s") or
# total CPU time (".s").
LAYER_METRICS = (
    ("cells.validate_cell.calls", "count"),
    ("cells.validate_cell.self_s", "s"),
    ("cells.parse_cell.self_s", "s"),
    ("cells.enumerate_cells.s", "s"),
    ("matrix.det_bareiss.calls", "count"),
    ("matrix.det_bareiss.self_s", "s"),
    ("matrix.solve_linear.calls", "count"),
    ("matrix.solve_linear.self_s", "s"),
    ("roots.smallest_positive_root.calls", "count"),
    ("roots.smallest_positive_root.self_s", "s"),
    ("roots.count_roots.calls", "count"),
    ("roots.count_roots.self_s", "s"),
    ("roots.refine.calls", "count"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.compose.calls", "count"),
    ("series.compose.self_s", "s"),
    ("series.from_ratfunc.self_s", "s"),
    ("greenkernel.cell_functions.calls", "count"),
    ("greenkernel.cell_functions.self_s", "s"),
    ("greenkernel.radius.self_s", "s"),
    ("greenkernel.spectral_property_report.self_s", "s"),
    ("greenkernel.modified_determinants.self_s", "s"),
    ("harmonic.harmonic_function.calls", "count"),
    ("harmonic.harmonic_function.self_s", "s"),
    ("iteration.green_series.calls", "count"),
    ("iteration.green_series.self_s", "s"),
    ("iteration.green_series.factors_used", "count"),
    ("iteration.green_series.out_bits", "bit"),
    ("iteration.singular_prefactor_probe.self_s", "s"),
    ("iteration.green_series_recursion.self_s", "s"),
    ("iteration.functional_residual.self_s", "s"),
    ("iteration.invariants.self_s", "s"),
    ("blowup.blowup.calls", "count"),
    ("blowup.blowup.self_s", "s"),
    ("blowup.blowup.edges_built", "count"),
    ("blowup.sufficient_level.calls", "count"),
    ("blowup.exact_return_probs.self_s", "s"),
    ("blowup.monte_carlo.self_s", "s"),
    ("blowup.monte_carlo.walk_steps", "count"),
    ("classify.classify.calls", "count"),
    ("classify.classify.self_s", "s"),
    ("classify.verify_cell.self_s", "s"),
    ("cli.main.self_s", "s"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.process_time())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, counters: dict):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            for suffix, count in counters.items():
                key = f"{name}.{suffix}"
                self.counters[key] = self.counters.get(key, 0) + count(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target wherever a cellgreen module refers to it."""
        for name, modname, attr, cls, counters in TARGETS:
            module = sys.modules.get(modname)
            owner = getattr(module, cls, None) if cls else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{cls + '.' if cls else ''}{attr}")
                continue
            wrapper = self.wrap(name, original, counters)
            if cls:
                setattr(owner, attr, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if mname == "cellgreen" or mname.startswith("cellgreen."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def summary(self) -> dict[str, float]:
        """Per-name calls, total and self CPU seconds, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, float] = {}
        for sid in range(n):
            name = self.names[self.name_of[sid]]
            dur = self.end[sid] - self.start[sid]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[sid]
        out.update(self.counters)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS; 0 for a layer the run never reached."""
        got = self.summary()
        return {name: got.get(name, 0) for name, _unit in LAYER_METRICS}
