"""Finite approximants of the infinite self-similar graph, and walk oracles.

The infinite graph is never materialized.  Level-k approximants arise by
repeatedly replacing every clique with a fresh cell copy; all vertices keep
their ids when a level is refined, so the original boundary vertices remain
the outermost glue points.  A closed walk of length n from the origin stays
within distance n // 2.  Every two boundary vertices of a valid cell are D
apart, and the vertices whose degree would still grow lie at distance D^k
from the origin of the level-k approximant (see blowup), so every n up to the
safe horizon 2 D^k - 1 sees no difference between the approximant and the
infinite graph.  That is what makes the two oracles here exact for small n:
integer walk counts, one pull per step over the cells of an equitable
partition of the ball that the closed walks reach, and seeded Monte Carlo
simulation.

numpy is imported inside each function that uses it, so that importing
cellgreen, which imports this module, does not pay for numpy's import.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TextIO
from fractions import Fraction

from .cells import CellError, CellGraph, require_valid

DEFAULT_EDGE_BUDGET = 10**6


class BudgetError(CellError):
    """Requested approximant exceeds the configured edge budget."""


@dataclass(frozen=True, eq=False)
class Approximant:
    """A finite approximant, held as CSR arrays.

    The neighbours of vertex v are indices[indptr[v]:indptr[v + 1]], in
    increasing order.  indptr is int64 and indices int32; both are made
    read-only here.  Two approximants are equal when their arrays and
    their other fields are.  defect_set holds the boundary vertices of the
    cell other than the origin, 1..theta-1: their degree would grow if
    further copies were glued at them.
    """

    level: int
    origin: int
    indptr: np.ndarray
    indices: np.ndarray
    defect_set: frozenset[int]
    safe_horizon: int

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def __eq__(self, other):
        import numpy as np
        if not isinstance(other, Approximant):
            return NotImplemented
        scalars = ("level", "origin", "defect_set", "safe_horizon")
        return (
            all(getattr(self, f) == getattr(other, f) for f in scalars)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])


def _bfs(indptr: np.ndarray, indices: np.ndarray, origin: int):
    """Yield (vertex, distance) in BFS order from origin.

    A scalar loop over memoryviews of the CSR arrays.  The distances and
    the queue are int32 arrays, which cost less time and memory than a
    list of Python ints.  A level-by-level numpy BFS would pay per level,
    and a path cell's approximant has thousands of levels.
    """
    import numpy as np
    ptr = memoryview(indptr)
    nbr = memoryview(indices)
    n = len(indptr) - 1
    dist = memoryview(np.full(n, -1, dtype=np.int32))
    queue = memoryview(np.empty(n, dtype=np.int32))
    dist[origin] = 0
    queue[0] = origin
    head, tail = 0, 1
    while head < tail:
        v = queue[head]
        head += 1
        d = dist[v]
        yield v, d
        for u in nbr[ptr[v]:ptr[v + 1]]:
            if dist[u] < 0:
                dist[u] = d + 1
                queue[tail] = u
                tail += 1


def blowup(
    g: CellGraph, k: int, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Approximant:
    """Level-k approximant with the origin at vertex 0.

    Each refinement replaces every clique by a fresh cell copy whose
    boundary is identified with the clique's vertices, smallest id first.
    The boundary is doubly transitive, so another identification, or
    further copies glued at the origin, would leave the walk probabilities
    from the origin unchanged; the tests build those approximants with
    their reference route and confirm it.

    The cliques are rows of an int array; level 0 is one clique, the
    boundary 0..theta-1.  Up to level k - 1, one refinement maps every
    cell vertex through a (copies, n) table vmap, whose row c holds clique
    c's members, then the fresh ids of copy c's interior in cell order,
    and gathers the base cliques through it.  Boundary vertices of a cell
    are pairwise non-adjacent, so a base clique holds at most one of them,
    first; the fresh ids exceed every older id and grow with the cell
    vertex, so each gathered row is sorted already.

    The CSR arrays of level k are written straight from the cliques of
    level k - 1, with no edge list.  Vertices 0..old-1 exist at level
    k - 1; copy c replaces clique c, its boundary vertex j is the clique's
    j-th member and its interior vertex w gets the fresh id
    old + c (n - theta) + w - theta.  An old vertex has theta - 1
    neighbours in each copy that holds it, since a valid cell's boundary
    vertices have degree theta - 1, all of them interior; so its degree is
    theta - 1 times the number of cliques that hold it.  A fresh vertex
    has its degree in the cell.  Each row comes out sorted:
      Fresh vertex: its sorted cell neighbours, mapped into copy c.  The
      boundary ones come first and map to clique c's sorted members, all
      older than every fresh id; the interior ones map to fresh ids that
      grow with the cell vertex.
      Old vertex: one stable argsort of the clique members groups its
      incidences, (copy c, position j), in increasing c, and each gives
      boundary vertex j's interior neighbours in copy c.  Copy c's fresh
      ids exceed copy c - 1's, and within a copy they grow with the cell
      vertex.
    No pair repeats, as two copies share no interior vertex and a
    boundary vertex of a cell is adjacent to no other.

    The safe horizon is 2 D^k - 1, where D is the distance between any two
    boundary vertices of the cell.  They are all D apart: an automorphism
    keeps distances, and in a valid cell one takes (0, 1) to every pair of
    boundary vertices.  Lemma: one refinement multiplies the distance
    between any two existing vertices by exactly D.
      (<=) Each edge lies in one clique.  Replace it by a path of length D
      between the same two vertices inside that clique's cell copy.
      (>=) Cut any path at the existing vertices it passes.  Each piece
      stays inside one cell copy and runs between two boundary vertices of
      that copy.  Those two are adjacent one level down, and the piece has
      length at least D.
    So the defects, D from the origin at level 1, are D^k away at level k.
    """
    import numpy as np
    if k < 1:
        raise CellError("level must be at least 1")
    report = require_valid(g)
    theta = g.theta
    d = g.distance(0, 1)
    # The cost never falls with the level, and past the budget's bit length
    # mu**j > budget unless mu = 1, when the cost does not grow at all.  So
    # the cost at j decides the budget, and it is the cost at k if j == k.
    j = min(k, edge_budget.bit_length() + 1)
    edge_cost = report.mu**j * theta * (theta - 1) // 2
    if edge_cost > edge_budget:
        needs = edge_cost if j == k else f"more than {edge_budget}"
        raise BudgetError(f"level {k} needs {needs} edges, budget is {edge_budget}")
    # Vertex ids are stored as int32; a connected graph has at most one
    # vertex more than it has edges.
    if edge_cost >= 2**31 - 1:
        raise BudgetError(
            f"level {k} needs {edge_cost} edges, int32 vertex ids allow fewer "
            f"than {2**31 - 1}"
        )

    n = g.n
    per_copy = n - theta  # interior vertices, ids theta..n-1
    base = np.array([sorted(c) for c in report.clique_partition], dtype=np.int32)
    cliques = np.arange(theta, dtype=np.int32).reshape(1, theta)  # level 0
    old = theta
    for _ in range(k - 1):
        copies = len(cliques)
        vmap = np.empty((copies, n), dtype=np.int32)
        vmap[:, :theta] = cliques
        fresh = np.arange(old, old + copies * per_copy, dtype=np.int32)
        vmap[:, theta:] = fresh.reshape(copies, per_copy)
        cliques = vmap[:, base].reshape(-1, theta)
        old += copies * per_copy

    copies = len(cliques)
    start = old - theta  # copy c's interior vertex w gets the id shift[c] + w
    shift = np.arange(start, start + copies * per_copy, per_copy, dtype=np.int32)
    nbrs = [sorted(g.neighbors(v)) for v in range(n)]
    flat = np.concatenate(nbrs[theta:]).astype(np.int32)  # one copy's fresh rows
    indptr = np.zeros(old + copies * per_copy + 1, dtype=np.int64)
    head = indptr[: old + 1]
    head[1:] = np.bincount(cliques.ravel(), minlength=old) * (theta - 1)
    np.cumsum(head, out=head)
    split = int(head[-1])
    ends = np.cumsum([len(nb) for nb in nbrs[theta:]])
    width = len(flat)
    starts = np.arange(split, split + copies * width, width)[:, None]
    np.add(starts, ends, out=indptr[old + 1 :].reshape(copies, per_copy))
    indices = np.empty(indptr[-1], dtype=np.int32)
    rows = indices[split:].reshape(copies, width)
    np.add(shift[:, None], flat, out=rows)
    for p in np.flatnonzero(flat < theta).tolist():
        rows[:, p] = cliques[:, flat[p]]
    # Row c * theta + j of inner: boundary vertex j's interior neighbours
    # in copy c, taken in the order of the old vertices' incidences.
    order = np.argsort(cliques.ravel(), kind="stable")
    spokes = np.ravel(nbrs[:theta]).astype(np.int32)
    inner = np.repeat(shift, len(spokes)) + np.tile(spokes, copies)
    np.take(
        inner.reshape(-1, theta - 1), order, axis=0,
        out=indices[:split].reshape(-1, theta - 1),
    )

    return Approximant(
        level=k,
        origin=0,
        indptr=indptr,
        indices=indices,
        defect_set=frozenset(range(1, theta)),
        safe_horizon=2 * d**k - 1,
    )


EMIT_CHUNK = 1 << 11  # CSR entries per slice: about 0.3 MB of lines at a time


def write_approximant(a: Approximant, out: TextIO) -> None:
    """Write the edge list of ``blowup --emit`` to a text stream.

    The header lines ``vertices N`` and ``origin O`` come first, then one
    line ``edge v u`` per edge with ``v < u``, in CSR order: by v, then u.
    The lines are made from slices of ``EMIT_CHUNK`` CSR entries, so the
    memory used stays bounded whatever the size of the approximant.
    """
    import numpy as np
    out.write(f"vertices {a.num_vertices}\norigin {a.origin}\n")
    for s in range(0, len(a.indices), EMIT_CHUNK):
        cols = a.indices[s : s + EMIT_CHUNK]
        rows = np.searchsorted(a.indptr, np.arange(s, s + len(cols)), "right") - 1
        keep = rows < cols
        out.write(
            "".join(
                f"edge {v} {u}\n"
                for v, u in zip(rows[keep].tolist(), cols[keep].tolist())
            )
        )


# -- exact oracle ---------------------------------------------------------------


# Ball CSR entries times steps below which the exact walk counts keep one
# cell per vertex: refinement costs a few dozen numpy calls a round, more
# than a pull this short (a few hundred microseconds) could save.
LUMP_MIN_WORK = 1 << 15


@dataclass(frozen=True)
class ReturnProbs:
    probs: tuple[Fraction, ...]
    safe_horizon: int


def _ball(a: Approximant, radius: int):
    """The ball of the given radius about the origin, as a CSR of its own.

    Returns (order, depth, ptr, src): the ball's vertices in BFS order,
    hence by distance, their distances, and for each the ball positions
    of its neighbours, src[ptr[i]:ptr[i + 1]], where a neighbour outside
    the ball maps to position len(order), one past it.  So every row has
    the vertex's full degree.  The BFS over the approximant stops at the
    radius.
    """
    import numpy as np
    order = []
    depth = []
    for v, d in _bfs(a.indptr, a.indices, a.origin):
        if d > radius:
            break
        order.append(v)
        depth.append(d)
    ball = len(order)
    order = np.array(order, dtype=np.intp)
    start = a.indptr[order]
    deg = a.indptr[order + 1] - start
    ptr = np.zeros(ball + 1, dtype=np.intp)
    np.cumsum(deg, out=ptr[1:])
    pos = np.full(a.num_vertices, ball, dtype=np.intp)
    pos[order] = np.arange(ball)
    src = pos[a.indices[np.repeat(start - ptr[:-1], deg) + np.arange(ptr[-1])]]
    return order, np.array(depth, dtype=np.intp), ptr, src


def _mix(colour: np.ndarray) -> np.ndarray:
    """A fixed integer mix of colours: splitmix64's output from state colour."""
    import numpy as np
    z = colour.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _equitable_cells(
    ptr: np.ndarray, src: np.ndarray, depth: np.ndarray
) -> np.ndarray:
    """The cell of each ball vertex in an equitable partition of the ball.

    In the ball CSR of ``_ball``, every vertex of a cell has the same
    sorted list of neighbour cells, with outside the ball as one more
    cell; so all of them have the same degree and the same number of
    neighbours in each cell.  Each cell lies in one depth layer, the
    origin is alone in cell 0, and cells are numbered by their first
    vertex, hence by depth.

    Colour refinement (Cardon and Crochemore, TCS 19, 1982) finds it.
    The first colouring is (depth, degree).  Each round sums ``_mix`` of
    the neighbours' colours over each row in uint64, outside neighbours
    adding 0, and splits every colour by that sum: the new colours number
    the distinct keys colour * 2^(64 - b) + sum // 2^b, b the bit length
    of the ball's size, which exceeds every colour.  So each round refines
    the last, and refinement stops when the number of colours stops
    growing.  Sums can collide, so the result is checked exactly: every
    vertex's sorted list of neighbour cells must equal that of its cell's
    first vertex.  If it does not, the discrete partition, one cell per
    vertex, is returned.  Hashing thus decides only how coarse the
    partition is, never whether it is equitable.
    """
    import numpy as np
    ball = len(depth)
    deg = np.diff(ptr)
    keys, colour = np.unique(depth * (deg.max() + 1) + deg, return_inverse=True)
    count = len(keys)
    shift = np.uint64(ball.bit_length())
    mixed = _mix(np.arange(ball))
    hashed = np.zeros(ball + 1, dtype=np.uint64)
    while True:
        hashed[:ball] = mixed[colour]
        sums = np.add.reduceat(hashed[src], ptr[:-1])
        keys, finer = np.unique(
            (colour.astype(np.uint64) << (np.uint64(64) - shift)) | (sums >> shift),
            return_inverse=True,
        )
        if len(keys) == count:
            break
        colour, count = finer, len(keys)
    first = np.unique(colour, return_index=True)[1]
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(count)
    cell = rank[colour]
    # Sort each row's neighbour cells (outside is cell `count`) by one
    # sort of row-major keys, and compare entry by entry with the row of
    # the cell's first vertex, which has the same length.
    row = np.repeat(np.arange(ball), deg)
    rows = np.sort(row * (count + 1) + np.append(cell, count)[src])
    rep = np.sort(first)[cell]
    at_rep = np.repeat(ptr[rep] - ptr[:-1], deg) + np.arange(len(src))
    if np.array_equal(rows[at_rep] - (rep[row] - row) * (count + 1), rows):
        return cell
    return np.arange(ball)


def exact_return_probs(a: Approximant, n_max: int) -> ReturnProbs:
    """p^(n)(origin, origin) for n = 0..n_max, exactly.

    A closed walk of length n stays within distance n // 2 of the origin,
    so the computation is restricted to that ball (``_ball``); probability
    mass that steps outside can never return in time and is dropped.
    Scaling by the lcm of the ball degrees keeps the iteration in
    integers: with w(u) = scale // deg(u), the vertex counts are
    vec_0 = e_origin and vec_n[v] = sum of w(u) vec_(n-1)[u] over the
    neighbours u of v in the ball, and probs[n] = vec_n[origin] / scale^n.
    A neighbour outside the ball reads a zero slot past the last count.

    The same argument prunes every step: mass at distance r after n - 1
    steps can be back by step n_max only if r <= n_max - n + 1, and it
    cannot be farther out than n - 1.  So step n need only carry the mass
    within reach = min(n - 1, n_max - n + 1).  It writes the targets
    within reach + 1 and reads the sources within reach + 2, which are
    all their neighbours.  A pull thus also admits mass from sources at
    distance reach + 1 and reach + 2, which a push from the sources within
    reach would drop.  While reach = n - 1 those sources lie at distance n
    or more, which n - 1 steps cannot reach, and they hold 0.  Once
    reach = n_max - n + 1, the mass lands at distance reach or more,
    farther from the origin than the n_max - n steps left, so it cannot
    return by step n_max.  Either way every probs[n] is unchanged.  This
    holds on any graph, so also past the safe horizon.

    No entry read at a step is stale.  Step m writes only within
    reach_m + 1 <= m, so no entry at distance n or more was written before
    step n; it holds its initial 0.  The entries that step n reads at a
    smaller distance lie within min(n - 1, reach_n + 2)
    = min(n - 1, n_max - n + 3) = reach_(n-1) + 1, which step n - 1 wrote.
    So the counts that a step leaves past its targets are never read
    again, and nothing is cleared between steps.  The products are written
    at every source read, and the zero slot lies past every prefix, so its
    0 is never overwritten.

    The counts are kept per cell of ``_equitable_cells``, not per vertex.
    Every vertex of a cell C has the degree deg(C) and the same number
    B[C, C'] of neighbours in each cell C'.  So one pull maps a vector x
    that is constant on cells to one that is too: every v in C gets
    sum over cells C' of B[C, C'] w(C') x[C'].  vec_0 = e_origin is
    constant on cells, the origin being alone in cell 0, so every vec_n
    is, and the walk from the origin is lumpable (Kemeny and Snell,
    Finite Markov Chains, 1960, section 6.3): one count per cell carries
    it.  A cell's first vertex pulls that count from its own neighbours,
    each read through its cell, so one step is a pull over object arrays
    on the first vertices: each cell's count times its w into a product
    buffer, then one sum over each first vertex's row.  Below
    ``LUMP_MIN_WORK`` entries times steps the ball keeps one cell per
    vertex, which is the vertex pull itself.

    The pruned vertex pull keeps vec_n constant on cells, stale entries
    included.  By induction on n: each window is a union of depth layers,
    and each cell lies in one layer, so a step writes whole cells, each
    vertex from its neighbours within reach + 2, whose values are
    constant on cells by the induction hypothesis; a cell it does not
    write keeps its values.  So the pull on first vertices reads and
    writes the vertex pull's values, and probs[n] does not depend on the
    partition.
    """
    import numpy as np
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    _, depth, ptr, src = _ball(a, n_max // 2)
    if n_max * len(src) < LUMP_MIN_WORK:
        cell = rep = np.arange(len(depth))
    else:
        cell = _equitable_cells(ptr, src, depth)
        rep = np.unique(cell, return_index=True)[1]
    cells = len(rep)
    # The rows of the cells' first vertices, each neighbour read through
    # its cell, and a neighbour outside the ball through the zero slot.
    deg = ptr[rep + 1] - ptr[rep]
    qptr = np.zeros(cells + 1, dtype=np.intp)
    np.cumsum(deg, out=qptr[1:])
    rows = np.repeat(ptr[rep] - qptr[:-1], deg) + np.arange(qptr[-1])
    qsrc = np.append(cell, cells)[src[rows]]
    cell_depth = depth[rep].tolist()
    degs = deg.tolist()
    scale = math.lcm(*degs)
    weight = np.array([scale // d for d in degs], dtype=object)

    vec = np.zeros(cells, dtype=object)
    vec[0] = 1
    vw = np.empty(cells + 1, dtype=object)
    vw[cells] = 0
    probs = [Fraction(1)]
    denom = 1
    for n in range(1, n_max + 1):
        reach = min(n - 1, n_max - n + 1)
        m_j = bisect.bisect_right(cell_depth, reach + 1)
        m_s = bisect.bisect_right(cell_depth, reach + 2)
        np.multiply(vec[:m_s], weight[:m_s], out=vw[:m_s])
        vec[:m_j] = np.add.reduceat(vw.take(qsrc[: qptr[m_j]]), qptr[:m_j])
        denom *= scale
        probs.append(Fraction(vec[0], denom))
    return ReturnProbs(probs=tuple(probs), safe_horizon=a.safe_horizon)


# -- Monte Carlo oracle -----------------------------------------------------------


@dataclass(frozen=True)
class WalkStats:
    n: int
    trials: int
    hits: int
    estimate: Fraction
    std_err: float
    seed: int


def monte_carlo(a: Approximant, n: int, trials: int, seed: int) -> WalkStats:
    """Estimate p^(n)(origin, origin) by a seeded walk of occupation counts.

    The walk draws from one PCG64 stream, the first child that
    SeedSequence(seed) spawns, so results are bit-for-bit reproducible for
    a fixed seed.

    The walkers are independent and exchangeable, so the walk keeps only
    the occupied vertices, in increasing order, and the number of walkers
    at each.  One step sends the c walkers at a vertex of degree d to its d
    neighbours in counts drawn Multinomial(c; 1/d, ..., 1/d), independently
    across vertices.  The count vector is thus a Markov chain, and the
    origin's count after n steps, the hits, is Binomial(trials, p_n).  Each
    step makes one rng.multinomial call per distinct degree among the
    occupied vertices, by increasing degree, each over the vertices of that
    degree in increasing order, and adds column j of vertex v's counts onto
    indices[indptr[v] + j].  So a step costs the number of occupied
    vertices times their degree, whatever the trial count.

    numpy splits a multinomial by successive binomials (Devroye, 1986;
    each binomial by inversion or by the BTPE method of Kachitvichyanukul
    and Schmeiser, CACM 31, 1988): category j takes Binomial(remaining, p)
    with p = 1/(d - j) computed in double precision, and the last category
    takes the rest.  So the law equals the per-walker law only up to that
    rounding, where a draw of rng.integers(0, d) per walker would be
    exactly uniform.
    """
    import numpy as np
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    deg = np.diff(a.indptr)
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.PCG64(stream))
    occupied = np.array([a.origin])
    counts = np.array([trials], dtype=np.int64)
    for _ in range(n):
        d_at = deg[occupied]
        to, moved = [], []
        for d in np.flatnonzero(np.bincount(d_at)).tolist():
            group = d_at == d
            moved.append(rng.multinomial(counts[group], [1 / d] * d).ravel())
            cols = a.indptr[occupied[group], None] + np.arange(d)
            to.append(a.indices[cols].ravel())
        to, moved = np.concatenate(to), np.concatenate(moved)
        some = moved > 0
        occupied, slot = np.unique(to[some], return_inverse=True)
        counts = np.zeros(len(occupied), dtype=np.int64)
        np.add.at(counts, slot, moved[some])
    hits = int(counts[occupied == a.origin].sum())
    p = hits / trials
    return WalkStats(
        n=n, trials=trials, hits=hits, estimate=Fraction(hits, trials),
        std_err=math.sqrt(p * (1 - p) / trials), seed=seed,
    )


def sufficient_approximant(
    g: CellGraph, n_max: int, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Approximant:
    """The approximant of smallest level whose safe horizon covers n_max.

    The level is the least k >= 1 with 2 D^k - 1 >= n_max, D the distance
    between the cell's boundary vertices (at least 2, as they are never
    adjacent), so it is logarithmic in n_max.  blowup rejects an invalid
    cell; in a valid one every two boundary vertices are D apart.
    """
    d = g.distance(0, 1)
    level = 1
    while 2 * d**level - 1 < n_max:
        level += 1
    return blowup(g, level, edge_budget=edge_budget)
