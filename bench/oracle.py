"""Independent computations that the benchmark checks outputs against.

Nothing here imports cellgreen.  Cells are plain ``(n, theta, edges)``
triples with the boundary at 0..theta-1 and the origin at 0, the same
convention as the cell file format after normalisation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# OEIS A001349: connected simple graphs on m = 1..6 unlabeled vertices.
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

# Two-boundary cells with at most 8 vertices, up to isomorphism.
TWO_BOUNDARY_CELLS = 736

# Width of the Monte Carlo acceptance band, in standard errors.
MC_SIGMAS = 5


def neighbours(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs(adj, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_bipartite(n: int, edges) -> bool:
    adj = neighbours(n, edges)
    colour = {0: 0}
    queue = [0]
    for v in queue:
        for u in adj[v]:
            if u not in colour:
                colour[u] = 1 - colour[v]
                queue.append(u)
            elif colour[u] == colour[v]:
                return False
    return True


def expected_outcome(n: int, theta: int, edges) -> str:
    """The verdict the paper's dichotomy assigns, decided from the graph."""
    if theta >= 3:
        return "ConjecturedTranscendental"
    adj = neighbours(n, edges)
    connected = len(bfs(adj, 0)) == n
    if connected and all(len(s) <= 2 for s in adj):
        return "AlgebraicStar"
    return "DifferentiallyTranscendental"


# -- canonical forms -------------------------------------------------------------


def _min_encoding(edges, classes) -> tuple:
    """Least sorted edge list over relabelings that keep each class in place.

    ``classes`` is a list of vertex groups with fixed target positions; a
    relabeling permutes each group onto its own positions.  Every
    isomorphism that respects the classes is tried.
    """
    best = None
    edge_list = list(edges)
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        perm = {}
        for grp, img in zip(classes, images):
            perm.update(zip(grp, img))
        enc = tuple(sorted(
            (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
            for a, b in edge_list
        ))
        if best is None or enc < best:
            best = enc
    return best


def _canonical(n: int, edges, key) -> tuple:
    """Least edge encoding over the relabelings that preserve ``key``.

    Vertices are grouped by ``key`` (degree, and boundary side for cells);
    each group owns a block of consecutive positions, and every way of
    placing each group onto its block is tried.  An isomorphism preserves
    the key, so two graphs get the same result exactly when they are
    isomorphic.
    """
    adj = neighbours(n, edges)
    groups: dict = {}
    for v in range(n):
        groups.setdefault(key(v, adj), []).append(v)
    keys = sorted(groups)
    order = [v for k in keys for v in groups[k]]
    pos = {v: i for i, v in enumerate(order)}
    relabeled = [(pos[a], pos[b]) for a, b in edges]
    blocks, i = [], 0
    for k in keys:
        blocks.append(list(range(i, i + len(groups[k]))))
        i += len(groups[k])
    shape = tuple((k, len(groups[k])) for k in keys)
    return (n, shape, _min_encoding(relabeled, blocks))


def canonical_graph(m: int, edges) -> tuple:
    """Isomorphism-class key of an unlabeled graph on vertices 0..m-1."""
    return _canonical(m, edges, lambda v, adj: len(adj[v]))


def canonical_cell(n: int, theta: int, edges) -> tuple:
    """Key of a cell up to isomorphisms that map the boundary onto itself."""
    return _canonical(n, edges, lambda v, adj: (v >= theta, len(adj[v])))


def interior_graph(n: int, theta: int, edges) -> tuple[int, list[tuple[int, int]]]:
    return n - theta, [
        (a - theta, b - theta) for a, b in edges if a >= theta and b >= theta
    ]


# -- approximants and walk counts --------------------------------------------------


def clique_partition(n: int, theta: int, edges) -> list[tuple[int, ...]]:
    """The cell's edges split into complete graphs on theta vertices."""
    edge_set = {tuple(sorted(e)) for e in edges}
    if theta == 2:
        return sorted(edge_set)
    adj = neighbours(n, edges)
    cliques = [
        c for c in itertools.combinations(range(n), theta)
        if all(b in adj[a] for a, b in itertools.combinations(c, 2))
    ]

    def cover(left: frozenset, chosen: list):
        if not left:
            return chosen
        first = min(left)
        for c in cliques:
            pairs = set(itertools.combinations(c, 2))
            if first in pairs and pairs <= left:
                got = cover(left - pairs, chosen + [c])
                if got is not None:
                    return got
        return None

    found = cover(frozenset(edge_set), [])
    if found is None:
        raise ValueError("cell edges admit no clique partition")
    return found


def approximant(n: int, theta: int, edges, level: int):
    """Level-k approximant by repeated clique substitution.

    Returns (adjacency, defect vertices).  Every clique is replaced by a
    fresh copy of the cell with boundary i glued to the clique's i-th
    vertex; the top-level boundary vertices 1..theta-1 are the defects.
    """
    base = clique_partition(n, theta, edges)
    cliques = list(base)
    next_id = n
    for _ in range(level - 1):
        refined = []
        for cl in cliques:
            vmap = dict(zip(range(theta), cl))
            for v in range(theta, n):
                vmap[v] = next_id
                next_id += 1
            refined.extend(tuple(vmap[v] for v in c) for c in base)
        cliques = refined
    adj = [set() for _ in range(next_id)]
    for cl in cliques:
        for a, b in itertools.combinations(cl, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj, set(range(1, theta))


def safe_horizon(adj, defects) -> int:
    dist = bfs(adj, 0)
    return 2 * min(dist[v] for v in defects) - 1


def return_probs(adj, n_max: int) -> list[Fraction]:
    """P(walk from 0 is at 0 after n steps) for n = 0..n_max, exactly.

    Counts weighted walks on the ball of radius n_max // 2; a walk that
    leaves it cannot come back in time.
    """
    ball = [v for v, d in bfs(adj, 0).items() if d <= n_max // 2]
    index = {v: i for i, v in enumerate(ball)}
    degs = [len(adj[v]) for v in ball]
    scale = math.lcm(*degs)
    steps = [
        (scale // len(adj[v]), [index[u] for u in adj[v] if u in index])
        for v in ball
    ]
    counts = [0] * len(ball)
    counts[index[0]] = 1
    probs = [Fraction(1)]
    for n in range(1, n_max + 1):
        nxt = [0] * len(ball)
        for c, (w, targets) in zip(counts, steps):
            if c:
                c *= w
                for j in targets:
                    nxt[j] += c
        counts = nxt
        probs.append(Fraction(counts[index[0]], scale**n))
    return probs


def level_for(n: int, theta: int, edges, order: int) -> int:
    """Smallest level whose safe horizon 2 D^k - 1 covers ``order``."""
    dist = bfs(neighbours(n, edges), 0)[1]
    k = 1
    while 2 * dist**k - 1 < order:
        k += 1
    return k


def star_coefficients(order: int) -> list[Fraction]:
    """Return probabilities of the line: C(2m, m) / 4^m at n = 2m, else 0."""
    return [
        Fraction(math.comb(n, n // 2), 4 ** (n // 2)) if n % 2 == 0 else Fraction(0)
        for n in range(order + 1)
    ]


def approximant_size(n: int, theta: int, edges, level: int) -> tuple[int, int, int]:
    """(vertices, edges, safe horizon) the level-k approximant must have."""
    mu = 2 * len(edges) // (theta * (theta - 1))
    dist = bfs(neighbours(n, edges), 0)[1]
    vertices = theta + (n - theta) * (mu**level - 1) // (mu - 1)
    return vertices, mu**level * theta * (theta - 1) // 2, 2 * dist**level - 1
