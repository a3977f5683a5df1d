"""Builtin example cells.

Vertex numbering follows the package convention: boundary first (origin 0),
interior after.  Each load builds a fresh cell, which validates itself the
first time its report is read, so no two loads share a report.
"""

from __future__ import annotations

from .cells import CellGraph, CellError


def _diamond() -> CellGraph:
    # Boundary 0,1 at the tips; 2 and 3 are the inner tip neighbors and
    # 4, 5 the two middle vertices joining them.
    edges = {(0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)}
    return CellGraph(6, 2, frozenset(edges), name="diamond")


def _path(length: int) -> CellGraph:
    # length edges, so length - 1 interior vertices: 0, 2, 3, ..., 1.
    if length < 2:
        raise CellError("path cells need at least two edges")
    inner = list(range(2, length + 1))
    chain = [0] + inner + [1]
    edges = {(chain[i], chain[i + 1]) for i in range(length)}
    return CellGraph(length + 1, 2, frozenset(edges), name=f"path{length}")


def _sierpinski() -> CellGraph:
    # Triangle of triangles: corners 0,1,2 and midpoints 3,4,5 where
    # 3 joins corners 0,1; 4 joins 0,2; 5 joins 1,2.
    edges = {
        (0, 3), (0, 4), (3, 4),
        (1, 3), (1, 5), (3, 5),
        (2, 4), (2, 5), (4, 5),
    }
    return CellGraph(6, 3, frozenset(edges), name="sierpinski")


def _theta4() -> CellGraph:
    # Four boundary vertices 0..3, each in a private 4-clique with two
    # private interior vertices and one hub vertex; the four hubs 12..15
    # form the fifth 4-clique.
    edges = set()

    def clique(vs):
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                edges.add((vs[i], vs[j]))

    clique([0, 4, 5, 12])
    clique([1, 6, 7, 13])
    clique([2, 8, 9, 14])
    clique([3, 10, 11, 15])
    clique([12, 13, 14, 15])
    return CellGraph(16, 4, frozenset(edges), name="theta4")


_BUILTINS = {
    "diamond": _diamond,
    "path2": lambda: _path(2),
    "path3": lambda: _path(3),
    "sierpinski": _sierpinski,
    "theta4": _theta4,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_cell(name: str) -> CellGraph:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise CellError(f"unknown builtin cell {name!r} (known: {known})")
    return factory()
