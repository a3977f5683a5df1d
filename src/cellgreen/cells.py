"""Cell graphs: ingestion, validation, and structural analysis.

A cell is a finite connected simple graph with an ordered list of boundary
vertices (the origin first) through which copies of the cell are glued to
build an infinite self-similar graph.  Internally vertices are always
relabeled so the boundary occupies 0..theta-1 with the origin at 0; every
matrix convention downstream relies on that ordering.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class CellError(ValueError):
    pass


class CellParseError(CellError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _reachable(nbrs: Sequence[Iterable[int]], start: int) -> set[int]:
    """Vertices reachable from start, given each vertex's neighbors."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in nbrs[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


@dataclass(frozen=True)
class CellGraph:
    """Finite simple connected graph with boundary vertices 0..theta-1.

    Vertex 0 is the origin.  Structural axioms (simplicity, connectivity,
    pairwise non-adjacent boundary) are enforced at construction; the
    symmetry axioms are checked separately by validate_cell.
    """

    n: int
    theta: int
    edges: frozenset[tuple[int, int]]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.theta < 2:
            raise CellError("at least two boundary vertices are required")
        if self.n <= self.theta:
            raise CellError("cell needs at least one interior vertex")
        edges = frozenset(_norm_edge(*e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if a == b:
                raise CellError(f"loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise CellError(f"edge ({a},{b}) outside vertex range")
        nbrs = [set() for _ in range(self.n)]
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        object.__setattr__(
            self, "_nbrs", tuple(frozenset(s) for s in nbrs)
        )
        for a in range(self.theta):
            for b in range(a + 1, self.theta):
                if b in nbrs[a]:
                    raise CellError(
                        f"boundary vertices {a} and {b} are adjacent"
                    )
        if len(_reachable(self._nbrs, 0)) != self.n:
            raise CellError("graph is not connected")

    # -- basic structure ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary(self) -> tuple[int, ...]:
        return tuple(range(self.theta))

    @property
    def interior(self) -> tuple[int, ...]:
        return tuple(range(self.theta, self.n))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._nbrs)

    def bfs_distances(self, source: int) -> list[int]:
        dist = [-1] * self.n
        dist[source] = 0
        queue = [source]
        for v in queue:
            for u in self._nbrs[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def distance(self, u: int, v: int) -> int:
        return self.bfs_distances(u)[v]

    def bipartition(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """Two-coloring by parity of the distance from vertex 0, else None."""
        parity = [d % 2 for d in self.bfs_distances(0)]
        if any(parity[a] == parity[b] for a, b in self.edges):
            return None
        return (
            frozenset(v for v in range(self.n) if parity[v] == 0),
            frozenset(v for v in range(self.n) if parity[v] == 1),
        )

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def is_path(self) -> bool:
        """True when the cell is a simple path between the two boundary ends."""
        if self.theta != 2:
            return False
        degs = self.degrees()
        return (
            degs[0] == 1
            and degs[1] == 1
            and all(degs[v] == 2 for v in self.interior)
        )


# -- parsing and serialization ---------------------------------------------


def _build_from_ids(
    n: int,
    boundary_ids: list[int],
    edge_ids: list[tuple[int, int]],
    name: str | None,
) -> CellGraph:
    if len(set(boundary_ids)) != len(boundary_ids):
        raise CellParseError("duplicate boundary vertex")
    ids = set(boundary_ids)
    for a, b in edge_ids:
        ids.add(a)
        ids.add(b)
    if len(ids) > n:
        raise CellParseError(
            f"{len(ids)} distinct vertex ids exceed declared count {n}"
        )
    # Unreferenced ids would be isolated vertices; reject early with a
    # clearer message than the connectivity check would give.
    if len(ids) < n:
        raise CellParseError(
            f"only {len(ids)} of {n} declared vertices appear in the file"
        )
    remap = {}
    for i, v in enumerate(boundary_ids):
        remap[v] = i
    for v in sorted(ids):
        if v not in remap:
            remap[v] = len(remap)
    seen = set()
    edges = []
    for a, b in edge_ids:
        if a == b:
            raise CellParseError(f"loop at vertex {a}")
        e = _norm_edge(remap[a], remap[b])
        if e in seen:
            raise CellParseError(f"duplicate edge ({a},{b})")
        seen.add(e)
        edges.append(e)
    return CellGraph(n, len(boundary_ids), frozenset(edges), name=name)


def _json_int(value) -> int:
    # bool is an int subclass, and int() would truncate 4.9 or read "4".
    if type(value) is not int:
        raise CellParseError(f"cell entries must be JSON integers, got {value!r}")
    return value


def cell_from_json(doc, name: str | None = None) -> CellGraph:
    """The cell of a JSON object with keys vertices, boundary and edges.

    Every count and vertex id must be a JSON integer; ids are normalized as
    by parse_cell.
    """
    try:
        n = _json_int(doc["vertices"])
        boundary = [_json_int(v) for v in doc["boundary"]]
        edges = [(_json_int(a), _json_int(b)) for a, b in doc["edges"]]
    except CellParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CellParseError(f"malformed JSON cell: {exc}") from exc
    return _build_from_ids(n, boundary, edges, name)


def parse_cell(text: str, name: str | None = None) -> CellGraph:
    """Parse the line-oriented cell format, or its JSON equivalent.

    Text grammar: `vertices <n>`, then `boundary <id>...`, then `edge <a> <b>`
    lines; `#` starts a comment.  JSON: object with keys vertices, boundary,
    edges.  Vertex ids are arbitrary integers and are normalized so the
    boundary occupies 0..theta-1 in listed order (origin first).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CellParseError(f"invalid JSON: {exc}") from exc
        return cell_from_json(doc, name)

    n = None
    boundary: list[int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "vertices":
                if n is not None:
                    raise CellParseError("repeated vertices line", lineno)
                n = int(parts[1])
            elif kind == "boundary":
                if boundary is not None:
                    raise CellParseError("repeated boundary line", lineno)
                boundary = [int(p) for p in parts[1:]]
            elif kind == "edge":
                if len(parts) != 3:
                    raise CellParseError("edge needs two endpoints", lineno)
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise CellParseError(f"unknown directive {kind!r}", lineno)
        except (IndexError, ValueError) as exc:
            raise CellParseError(f"cannot parse: {raw!r}", lineno) from exc
    if n is None:
        raise CellParseError("missing vertices line")
    if boundary is None or len(boundary) < 2:
        raise CellParseError("missing or short boundary line")
    try:
        return _build_from_ids(n, boundary, edges, name)
    except CellParseError:
        raise
    except CellError as exc:
        raise CellParseError(str(exc)) from exc


def cell_to_text(g: CellGraph) -> str:
    lines = [f"vertices {g.n}", "boundary " + " ".join(map(str, g.boundary))]
    lines += [f"edge {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def cell_to_json(g: CellGraph) -> dict:
    return {
        "vertices": g.n,
        "boundary": list(g.boundary),
        "edges": [list(e) for e in sorted(g.edges)],
    }


# -- adjacency rows ---------------------------------------------------------


def adjacency_rows(g: CellGraph) -> list[list[int]]:
    """0/1 adjacency rows of the cell; row x sums to deg(x).

    The simple-random-walk step matrix is diag(degrees)^-1 times these rows.
    """
    rows = [[0] * g.n for _ in range(g.n)]
    for x, row in enumerate(rows):
        for y in g.neighbors(x):
            row[y] = 1
    return rows


# -- automorphisms ----------------------------------------------------------


def _extend_automorphism(
    g: CellGraph, mapping: dict[int, int], used: set[int]
) -> bool:
    """Depth-first search for the images of the unmapped vertices.

    The search keeps one frame per vertex it has mapped on an explicit
    stack, not the call stack, so a cell of any size fits: each frame holds
    the vertex and the images it has yet to try.
    """
    frames: list[tuple[int, Iterator[int]]] = []
    while len(mapping) < g.n:
        v = _next_unmapped(g, mapping)
        frames.append((v, _images(g, mapping, used, v)))
        while (w := next(frames[-1][1], None)) is None:
            frames.pop()
            if not frames:
                return False
            used.remove(mapping.pop(frames[-1][0]))
        v = frames[-1][0]
        mapping[v] = w
        used.add(w)
    return True


def _next_unmapped(g: CellGraph, mapping: dict[int, int]) -> int:
    # Prefer an unmapped vertex adjacent to the mapped region.
    unmapped = [v for v in range(g.n) if v not in mapping]
    for v in unmapped:
        if any(u in mapping for u in g.neighbors(v)):
            return v
    return unmapped[0]


def _images(
    g: CellGraph, mapping: dict[int, int], used: set[int], cand: int
) -> Iterator[int]:
    """The unused vertices that ``cand`` may map to, given ``mapping``.

    Lazy: each is tested against ``mapping`` and ``used`` as they stand
    when it is asked for, which is as they stood when the frame was made.
    """
    deg = g.degree(cand)
    boundary_side = cand < g.theta
    nbrs = g.neighbors(cand)
    mapped_nbrs = {mapping[u] for u in nbrs if u in mapping}
    for w in range(g.n):
        if w in used or g.degree(w) != deg:
            continue
        if (w < g.theta) != boundary_side:
            continue
        if not mapped_nbrs <= g.neighbors(w):
            continue
        # Edges to mapped vertices must be mirrored exactly.
        w_nbrs = g.neighbors(w)
        if all((u in nbrs) == (mu in w_nbrs) for u, mu in mapping.items()):
            yield w


def has_automorphism(g: CellGraph, forced: dict[int, int]) -> bool:
    """Is there a boundary-set-preserving automorphism extending `forced`?"""
    for v, w in forced.items():
        if g.degree(v) != g.degree(w) or (v < g.theta) != (w < g.theta):
            return False
    if len(set(forced.values())) != len(forced):
        return False
    return _extend_automorphism(g, dict(forced), set(forced.values()))


def boundary_doubly_transitive(g: CellGraph) -> bool:
    """Automorphisms reach every ordered pair of boundary vertices from (0,1)."""
    for a in range(g.theta):
        for b in range(g.theta):
            if a == b:
                continue
            if not has_automorphism(g, {0: a, 1: b}):
                return False
    return True


# -- clique partition --------------------------------------------------------


def _cliques_through(g: CellGraph, size: int) -> list[frozenset[int]]:
    """Every clique on ``size`` vertices, in lexicographic order."""
    out = []

    def grow(base: list[int], candidates: list[int]):
        # candidates: the vertices above base's last, adjacent to all of it.
        if len(base) == size:
            out.append(frozenset(base))
            return
        allowed = set(candidates)
        for v in candidates:
            grow(base + [v], sorted(u for u in g.neighbors(v) & allowed if u > v))

    grow([], list(range(g.n)))
    return out


def clique_partition(g: CellGraph) -> list[frozenset[int]] | None:
    """Partition of the edge set into complete graphs on theta vertices.

    For theta = 2 every edge is such a clique.  Otherwise an exact-cover
    backtracking search over all theta-cliques is run; None when no
    partition exists.
    """
    if g.theta == 2:
        return [frozenset(e) for e in sorted(g.edges)]
    cliques = _cliques_through(g, g.theta)
    clique_edges = [list(itertools.combinations(sorted(c), 2)) for c in cliques]
    edge_in = {}
    for idx, edges in enumerate(clique_edges):
        for e in edges:
            edge_in.setdefault(e, []).append(idx)
    all_edges = sorted(g.edges)
    if any(e not in edge_in for e in all_edges):
        return None
    # An exact cover by depth-first search over an explicit stack, one
    # frame per chosen clique, so a cell of any size fits: each frame holds
    # the cliques through its target edge that it has yet to try.
    chosen: list[int] = []
    covered: set[tuple[int, int]] = set()

    def next_disjoint(frame: Iterator[int]) -> int | None:
        return next((i for i in frame if covered.isdisjoint(clique_edges[i])), None)

    frames: list[Iterator[int]] = []
    while (target := next((e for e in all_edges if e not in covered), None)) is not None:
        frames.append(iter(edge_in[target]))
        while (idx := next_disjoint(frames[-1])) is None:
            frames.pop()
            if not frames:
                return None
            covered.difference_update(clique_edges[chosen.pop()])
        chosen.append(idx)
        covered.update(clique_edges[idx])
    return [cliques[i] for i in chosen]


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class CellReport:
    theta: int
    mu: int | None
    bipartite: bool
    is_path: bool
    clique_partition: tuple[frozenset[int], ...] | None
    doubly_transitive: bool | str
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations and self.doubly_transitive in (
            True,
            "skipped",
        )


def validate_cell(g: CellGraph, check_automorphisms: bool = True) -> CellReport:
    """Check the symmetry axioms and report violations instead of raising."""
    violations: list[str] = []
    theta = g.theta
    mu2 = 2 * g.num_edges
    if mu2 % (theta * (theta - 1)) == 0:
        mu = mu2 // (theta * (theta - 1))
    else:
        mu = None
        violations.append(
            "edge count is not a multiple of the clique size "
            f"({g.num_edges} edges, clique K_{theta})"
        )
    partition = clique_partition(g)
    if partition is None:
        violations.append("edges admit no partition into complete graphs K_theta")
    elif mu is not None and len(partition) != mu:
        violations.append("clique partition size disagrees with edge count")
    for b in range(theta):
        if g.degree(b) != theta - 1:
            violations.append(
                f"boundary vertex {b} has degree {g.degree(b)}, expected "
                f"{theta - 1}: gluing copies at it would grow its degree "
                "without bound, so no locally finite limit graph exists"
            )
    if check_automorphisms:
        dt: bool | str = boundary_doubly_transitive(g)
        if dt is False:
            violations.append(
                "automorphism group is not doubly transitive on the boundary"
            )
    else:
        dt = "skipped"
    return CellReport(
        theta=theta,
        mu=mu,
        bipartite=g.is_bipartite(),
        is_path=g.is_path(),
        clique_partition=None if partition is None else tuple(partition),
        doubly_transitive=dt,
        violations=tuple(violations),
    )


def require_valid(g: CellGraph, check_automorphisms: bool = True) -> CellReport:
    report = validate_cell(g, check_automorphisms=check_automorphisms)
    if not report.valid:
        label = g.name or "cell"
        raise CellError(f"invalid {label}: " + "; ".join(report.violations))
    return report


# -- enumeration of two-boundary cells ----------------------------------------


@lru_cache(maxsize=None)
def connected_graph_classes(m: int) -> tuple[tuple[frozenset, tuple], ...]:
    """Connected simple graphs on m labeled vertices, one per isomorphism class.

    Edge masks are scanned in increasing order; each mask not yet seen
    starts a new class, and the masks of all its relabelings are marked
    seen (Read's orderly rejection), so every class comes out as its least
    mask and is tested for connectivity once.  Each connected class comes
    with its automorphism group: the relabelings whose image is the
    class's own mask.

    A relabeling maps a mask byte by byte: ``table[q, v, p]`` is the image
    under relabeling p of byte value v at byte q of the mask, so the images
    of a mask under all relabelings are one row gather and OR per byte.
    """
    import numpy as np
    pairs = list(itertools.combinations(range(m), 2))
    perms = list(itertools.permutations(range(m)))
    nbytes = max(1, (len(pairs) + 7) // 8)
    # bit[i, p]: the mask bit of pair i's image under relabeling p.
    bit = np.zeros((8 * nbytes, len(perms)), dtype=np.uint32)
    if pairs:
        rel = np.array(perms).T
        a, b = rel[[p[0] for p in pairs]], rel[[p[1] for p in pairs]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bit[: len(pairs)] = np.left_shift(1, lo * (2 * m - lo - 1) // 2 + hi - lo - 1)
    table = np.zeros((nbytes, 256, len(perms)), dtype=np.uint32)
    for q in range(nbytes):
        for j in range(8):
            # Byte values with top bit j: those below 2^j, plus bit j.
            table[q, 1 << j : 2 << j] = table[q, : 1 << j] | bit[8 * q + j]
    unseen = np.ones(1 << len(pairs), dtype=bool)
    out = []
    mask = 0
    while True:
        images = table[0, mask & 255].copy()
        for q in range(1, nbytes):
            images |= table[q, mask >> (8 * q) & 255]
        unseen[images] = False
        on = [i for i in range(len(pairs)) if mask >> i & 1]
        adj = [set() for _ in range(m)]
        for i in on:
            a, b = pairs[i]
            adj[a].add(b)
            adj[b].add(a)
        if len(_reachable(adj, 0)) == m:
            group = tuple(perms[p] for p in np.flatnonzero(images == mask))
            out.append((frozenset(pairs[i] for i in on), group))
        # argmax on bools stops at the first unseen mask.
        mask += int(np.argmax(unseen[mask:]))
        if not unseen[mask]:
            return tuple(out)


def enumerate_cells(theta: int = 2, max_vertices: int = 8) -> Iterator[CellGraph]:
    """All valid two-boundary cells with at most max_vertices vertices.

    A cell is an interior connected graph plus one pendant edge from each
    boundary vertex, subject to the swap symmetry on the boundary.  Cells are
    emitted once per boundary-preserving isomorphism class, smallest first.
    """
    if theta != 2:
        raise CellError("enumeration is implemented for two boundary vertices")
    if max_vertices < 3:
        return
    for m in range(1, max_vertices - 1):
        for edges, auts in connected_graph_classes(m):
            seen_pairs: set[frozenset[int]] = set()
            for a in range(m):
                for b in range(a, m):
                    pair = frozenset((a, b))
                    if pair in seen_pairs:
                        continue
                    orbit = {
                        frozenset((perm[a], perm[b])) for perm in auts
                    }
                    seen_pairs.update(orbit)
                    # The two attachment points must be exchangeable, or the
                    # boundary swap cannot extend to an automorphism.
                    if a != b and not any(
                        perm[a] == b and perm[b] == a for perm in auts
                    ):
                        continue
                    cell_edges = {(0, a + 2), (1, b + 2)}
                    cell_edges.update(
                        (u + 2, v + 2) for u, v in edges
                    )
                    yield CellGraph(
                        m + 2, 2, frozenset(cell_edges), name=f"enum{m}"
                    )
