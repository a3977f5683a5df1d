"""Exact Green's functions of symmetrically self-similar graphs.

A finite cell graph determines an infinite self-similar graph by repeated
clique substitution.  This package computes the cell's walk generating
functions exactly, expands the limit graph's Green's function through the
functional equation G = f (G over d), extracts the growth invariants, and
classifies G as algebraic or differentially transcendental, with
independent blow-up and Monte Carlo oracles backing every coefficient.

numpy is imported on the first call of the entry points that use it:
blowup, exact_return_probs, monte_carlo, sufficient_approximant,
verify_cell and enumerate_cells.  Importing the package does not load it,
nor do the exact computations (cell_functions, green_series, invariants,
classify).
"""

from .blowup import (
    Approximant,
    BudgetError,
    blowup,
    exact_return_probs,
    monte_carlo,
    sufficient_approximant,
)
from .cells import (
    CellError,
    CellGraph,
    CellReport,
    enumerate_cells,
    parse_cell,
    validate_cell,
)
from .classify import Verdict, classify, verify_cell
from .greenkernel import CellFunctions, KernelError, PropertyReport, cell_functions
from .harmonic import alpha_from_harmonic, harmonic_function
from .iteration import CellInvariants, GreenSeries, green_series, invariants
from .registry import builtin_cell, builtin_names

__version__ = "0.1.0"

# The documented surface; README.md lists the same names.  Everything else
# is imported from its module (cellgreen.cells, cellgreen.algebra, ...).
__all__ = [
    "Approximant",
    "BudgetError",
    "CellError",
    "CellFunctions",
    "CellGraph",
    "CellInvariants",
    "CellReport",
    "GreenSeries",
    "KernelError",
    "PropertyReport",
    "Verdict",
    "alpha_from_harmonic",
    "blowup",
    "builtin_cell",
    "builtin_names",
    "cell_functions",
    "classify",
    "enumerate_cells",
    "exact_return_probs",
    "green_series",
    "harmonic_function",
    "invariants",
    "monte_carlo",
    "parse_cell",
    "sufficient_approximant",
    "validate_cell",
    "verify_cell",
    "__version__",
]
