"""Finite approximants of the infinite self-similar graph, and walk oracles.

The infinite graph is never materialized.  Level-k approximants arise by
repeatedly replacing every clique with a fresh cell copy; all vertices keep
their ids when a level is refined, so the original boundary vertices remain
the outermost glue points.  A closed walk of length n from the origin stays
within distance n // 2.  When every two boundary vertices of the cell are D
apart, the vertices whose degree would still grow lie at distance D^k from
the origin of the level-k approximant (see blowup), so every n up to the
safe horizon 2 D^k - 1 sees no difference between the approximant and the
infinite graph.  That is what makes the two oracles here exact for small n:
integer matrix-vector powering and seeded Monte Carlo simulation.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import TextIO
from fractions import Fraction

import numpy as np

from .cells import CellError, CellGraph, require_valid

DEFAULT_EDGE_BUDGET = 10**6
SLICE = 1 << 15  # walkers per Monte Carlo draw: the buffers stay in the warm heap


class BudgetError(CellError):
    """Requested approximant exceeds the configured edge budget."""


@dataclass(frozen=True, eq=False)
class Approximant:
    """A finite approximant, held as CSR arrays.

    The neighbours of vertex v are indices[indptr[v]:indptr[v + 1]], in
    increasing order.  indptr is int64 and indices int32; both are made
    read-only here.  Two approximants are equal when their arrays and
    their other fields are.
    """

    level: int
    origin: int
    indptr: np.ndarray
    indices: np.ndarray
    defect_set: frozenset[int]
    safe_horizon: int
    cell_name: str | None = None

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Approximant):
            return NotImplemented
        scalars = ("level", "origin", "defect_set", "safe_horizon", "cell_name")
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

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbour tuple of every vertex (for the tests)."""
        flat = self.indices.tolist()
        ends = self.indptr.tolist()
        return tuple(tuple(flat[s:e]) for s, e in zip(ends, ends[1:]))


def _bfs(indptr: np.ndarray, indices: np.ndarray, origin: int):
    """Yield (vertex, distance) in BFS order from origin.

    A scalar loop over memoryviews of the CSR arrays.  The distances and
    the queue are int32 arrays, which cost less time and memory than a
    list of Python ints.  A level-by-level numpy BFS would pay per level,
    and a path cell's approximant has thousands of levels.
    """
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
    g: CellGraph,
    k: int,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
    origin_copies: int = 1,
    randomize_identification: int | None = None,
) -> Approximant:
    """Level-k approximant with the origin at vertex 0.

    Each refinement replaces every clique by a fresh cell copy whose
    boundary is identified with the clique's vertices, smallest id first.
    randomize_identification, when given a seed, shuffles that bijection
    per clique instead; boundary symmetry makes the resulting walk
    probabilities identical, which tests confirm.  origin_copies > 1 glues
    extra disjoint copies at the origin (the walk probabilities again must
    not change).

    The cliques are rows of an int array.  One refinement maps every cell
    vertex through a (cliques, n) table, whose first theta columns are the
    clique members and whose other columns are fresh interior ids in
    clique order, and gathers the base cliques through it.  Boundary
    vertices of a cell are pairwise non-adjacent, so a base clique holds
    at most one of them, first; the fresh ids exceed every older id and
    grow with the cell vertex, so each gathered row is sorted already.
    For the same reason the cliques share no edge, and the CSR arrays come
    from one sort of the directed edges, with no pair repeated; they are
    returned as they are built.

    The safe horizon is 2 D^k - 1, where D is the distance between any two
    boundary vertices of the cell; a cell whose boundary distances are not
    all equal is rejected.  Lemma: one refinement multiplies the distance
    between any two existing vertices by exactly D.
      (<=) Each edge lies in one clique.  Replace it by a path of length D
      between the same two vertices inside that clique's cell copy.
      (>=) Cut any path at the existing vertices it passes.  Each piece
      stays inside one cell copy and runs between two boundary vertices of
      that copy.  Those two are adjacent one level down, and the piece has
      length at least D.
    So the defects, D from the origin at level 1, are D^k away at level k,
    in every origin copy and under any identification shuffle.
    """
    if k < 1:
        raise CellError("level must be at least 1")
    if origin_copies < 1:
        raise CellError("need at least one copy at the origin")
    report = require_valid(g, check_automorphisms=False)
    theta = g.theta
    d = g.distance(0, 1)
    spread = {x for a in range(theta) for x in g.bfs_distances(a)[a + 1 : theta]}
    if spread != {d}:
        raise CellError(
            f"invalid {g.name or 'cell'}: boundary vertices lie at distances "
            f"{sorted(spread)}, not all equal, so no safe horizon is known"
        )
    # The cost never falls with the level, and past the budget's bit length
    # mu**j > budget unless mu = 1, when the cost does not grow at all.  So
    # the cost at j decides the budget, and it is the cost at k if j == k.
    j = min(k, edge_budget.bit_length() + 1)
    edge_cost = origin_copies * report.mu**j * theta * (theta - 1) // 2
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

    rng = (
        random.Random(randomize_identification)
        if randomize_identification is not None
        else None
    )
    base = np.array([sorted(c) for c in report.clique_partition], dtype=np.int64)
    per_copy = g.n - theta  # interior vertices, ids theta..n-1

    cliques = base
    next_id = g.n
    for _ in range(k - 1):
        if rng is not None:
            rows = cliques.tolist()
            for members in rows:
                rng.shuffle(members)
            cliques = np.array(rows, dtype=np.int64)
        count = len(cliques)
        vmap = np.empty((count, g.n), dtype=np.int64)
        vmap[:, :theta] = cliques
        fresh = np.arange(next_id, next_id + count * per_copy, dtype=np.int64)
        vmap[:, theta:] = fresh.reshape(count, per_copy)
        next_id += count * per_copy
        cliques = vmap[:, base].reshape(-1, theta)

    # Non-origin vertex count of one copy; copies share vertex 0 only, and
    # shifting every other id keeps each row sorted.
    block = next_id - 1
    if origin_copies > 1:
        cliques = np.concatenate(
            [cliques]
            + [np.where(cliques == 0, 0, cliques + c * block)
               for c in range(1, origin_copies)]
        )
        next_id += (origin_copies - 1) * block

    # Edge (v, u) is the key v * next_id + u, exact in int64 for fewer
    # than 3 * 10^9 vertices.  The keys are built and sorted in place, and
    # each temporary is dropped once used, so the build holds few
    # edge-sized arrays at once.
    first, second = np.triu_indices(theta, 1)
    lo = cliques[:, first].ravel()
    hi = cliques[:, second].ravel()
    del cliques
    half = len(lo)
    keys = np.empty(2 * half, dtype=np.int64)
    np.multiply(lo, next_id, out=keys[:half])
    keys[:half] += hi
    np.multiply(hi, next_id, out=keys[half:])
    keys[half:] += lo
    del lo, hi
    keys.sort()
    indptr = np.zeros(next_id + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // next_id, minlength=next_id), out=indptr[1:])
    indices = (keys % next_id).astype(np.int32)
    del keys

    # Defect vertices are the non-origin boundary ids of every top-level
    # copy: in the infinite graph they would be glued into further copies,
    # so their approximant degree is too small.
    defect = frozenset(
        b + c * block for c in range(origin_copies) for b in range(1, theta)
    )
    return Approximant(
        level=k,
        origin=0,
        indptr=indptr,
        indices=indices,
        defect_set=defect,
        safe_horizon=2 * d**k - 1,
        cell_name=g.name,
    )


EMIT_CHUNK = 1 << 11  # CSR entries per slice: about 0.3 MB of lines at a time


def write_approximant(a: Approximant, out: TextIO) -> None:
    """Write the edge list of ``blowup --emit`` to a text stream.

    The header lines ``vertices N`` and ``origin O`` come first, then one
    line ``edge v u`` per edge with ``v < u``, in CSR order: by v, then u.
    The lines are made from slices of ``EMIT_CHUNK`` CSR entries, so the
    memory used stays bounded whatever the size of the approximant.
    """
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


@dataclass(frozen=True)
class ReturnProbs:
    probs: tuple[Fraction, ...]
    safe_horizon: int

    @property
    def approximant_only_from(self) -> int | None:
        """First step count not covered by the infinite-graph guarantee."""
        if len(self.probs) - 1 <= self.safe_horizon:
            return None
        return self.safe_horizon + 1


def exact_return_probs(a: Approximant, n_max: int) -> ReturnProbs:
    """p^(n)(origin, origin) for n = 0..n_max, exactly.

    A closed walk of length n stays within distance n // 2 of the origin,
    so the computation is restricted to that ball; probability mass that
    steps outside can never return in time and is dropped.  The same
    argument prunes every step: mass at distance r after n - 1 steps can
    be back by step n_max only if r <= n_max - n + 1, and it cannot be
    farther out than n - 1.  So step n reads only the prefix of the ball
    (in BFS order, hence by distance) within min(n - 1, n_max - n + 1).
    This holds on any graph, so also past the safe horizon.  Scaling by
    the lcm of the ball degrees keeps the iteration in integers.  The ball
    is found by a BFS over the approximant's CSR arrays, which stops at
    the radius, so only the ball is ever held as Python lists.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    radius = n_max // 2
    order = []
    depth = []
    for v, d in _bfs(a.indptr, a.indices, a.origin):
        if d > radius:
            break
        order.append(v)
        depth.append(d)
    index = {v: i for i, v in enumerate(order)}
    ptr = memoryview(a.indptr)
    nbr = memoryview(a.indices)
    degs = [ptr[v + 1] - ptr[v] for v in order]
    scale = math.lcm(*degs) if degs else 1
    weight = [scale // d for d in degs]
    targets = [
        [index[u] for u in nbr[ptr[v]:ptr[v + 1]] if u in index] for v in order
    ]

    vec = [1]
    probs = [Fraction(1)]
    for n in range(1, n_max + 1):
        reach = min(n - 1, n_max - n + 1)
        nxt = [0] * bisect.bisect_right(depth, reach + 1)
        for i in range(bisect.bisect_right(depth, reach)):
            val = vec[i]
            if not val:
                continue
            w = val * weight[i]
            for j in targets[i]:
                nxt[j] += w
        vec = nxt
        probs.append(Fraction(vec[0], scale**n))
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
    workers: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "hits": self.hits,
            "estimate": str(self.estimate),
            "estimate_approx": float(self.estimate),
            "std_err": self.std_err,
            "seed": self.seed,
            "workers": self.workers,
        }


def _draw_below(rng, d, words, out, carry):
    """Set out to rng.integers(0, d) for uint32 bounds d >= 1, drawn as
    monte_carlo says, and return the new carry, PCG64's buffered half-word
    (has_uint32, uinteger); words is a uint32 buffer at least as long as d."""
    bitgen = rng.bit_generator
    snapshot = bitgen.state
    has0, half0 = has, half = carry
    many = d > 1
    need = int(np.count_nonzero(many))
    if has and need:
        first = many.argmax()
        words[first], many[first] = half, False
        need, has = need - 1, 0
    raw = bitgen.random_raw((need + 1) // 2).view(np.uint32)
    words = words[: len(d)]
    words[many] = raw[:need]
    if need % 2:
        has, half = 1, int(raw[-1])
    np.multiply(words, d, out=out, dtype=np.uint64)
    low = np.multiply(words, d, out=words)  # u * d mod 2^32
    if np.less(low, d, out=many).any():
        bound = d[many]  # in uint32, (-d) % d is (2^32 - d) % d
        if (low[many] < (-bound) % bound).any():
            bitgen.state = {**snapshot, "has_uint32": has0, "uinteger": half0}
            out[:] = rng.integers(0, d.astype(np.int64))
            return bitgen.state["has_uint32"], bitgen.state["uinteger"]
    out >>= 32
    return has, half


def monte_carlo(
    a: Approximant,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
    chunk: int = 1 << 18,
) -> WalkStats:
    """Estimate p^(n)(origin, origin) by seeded vectorized simulation.

    The trial count is split evenly over `workers` PCG64 streams spawned
    from the master seed (remainder to the first streams).  The streams
    run one after another in this process: `workers` fixes the split, not
    a degree of parallelism.  Each stream moves batches of at most `chunk`
    walkers.  Results are bit-for-bit reproducible for a fixed (seed,
    workers, chunk).

    The walk reads the approximant's CSR arrays directly.  A walker is
    held as the offset where its vertex's neighbour list starts (its
    indptr entry), so one step is two lookups: the degree at that offset,
    and the start offset of the chosen neighbour.  A step runs over the
    batch in slices of SLICE walkers, in order, in buffers made once.
    numpy draws below d by Lemire's method (ACM TOMACS 29, 2019): a word u
    gives (u * d) >> 32, or is rejected if the low word of u * d is below
    (2^32 - d) % d.  PCG64 (O'Neill, 2014) gives out each 64-bit output as
    two words, low half first, and buffers the high half; _draw_below
    reads the words from random_raw and carries that half from slice to
    slice itself.  A bound of 1 maps any word to 0 and never rejects, so
    a leaf's slot may keep a stale word.  On a rejection (chance below
    d / 2^32) the slice is rewound, carry included, and rng.integers
    draws it.  So the draws are exactly those of rng.integers(0, degrees).
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError("need at least one worker")
    start = a.indptr[:-1]
    deg_at = np.zeros(len(a.indices), dtype=np.uint32)
    deg_at[start] = np.diff(a.indptr)
    nbr_start = start[a.indices]
    home = start[a.origin]
    degs, words = np.empty((2, SLICE), dtype=np.uint32)
    draws = np.empty(SLICE, dtype=np.int64)

    streams = np.random.SeedSequence(seed).spawn(workers)
    base, rem = divmod(trials, workers)
    hits = 0
    for w in range(workers):
        todo = base + (1 if w < rem else 0)
        rng = np.random.Generator(np.random.PCG64(streams[w]))
        carry = (0, 0)  # a fresh PCG64 buffers no half-word
        while todo > 0:
            batch = min(todo, chunk)
            todo -= batch
            at = np.full(batch, home, dtype=np.int64)
            for _ in range(n):
                for s in range(0, batch, SLICE):
                    here = at[s : s + SLICE]
                    step = draws[: len(here)]
                    d = np.take(deg_at, here, out=degs[: len(here)], mode="clip")
                    carry = _draw_below(rng, d, words, step.view(np.uint64), carry)
                    step += here
                    np.take(nbr_start, step, out=here, mode="clip")
            hits += int(np.count_nonzero(at == home))
    p = hits / trials
    std_err = math.sqrt(p * (1 - p) / trials)
    return WalkStats(
        n=n,
        trials=trials,
        hits=hits,
        estimate=Fraction(hits, trials),
        std_err=std_err,
        seed=seed,
        workers=workers,
    )


def sufficient_approximant(
    g: CellGraph, n_max: int, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Approximant:
    """The approximant of smallest level whose safe horizon covers n_max.

    The level is the least k >= 1 with 2 D^k - 1 >= n_max, D the distance
    between the cell's boundary vertices (at least 2, as they are never
    adjacent), so it is logarithmic in n_max.  blowup checks that D is the
    distance between every pair of boundary vertices.
    """
    d = g.distance(0, 1)
    level = 1
    while 2 * d**level - 1 < n_max:
        level += 1
    return blowup(g, level, edge_budget=edge_budget)
