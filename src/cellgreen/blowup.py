"""Finite approximants of the infinite self-similar graph, and walk oracles.

The infinite graph is never materialized.  Level-k approximants arise by
repeatedly replacing every clique with a fresh cell copy; all vertices keep
their ids when a level is refined, so the original boundary vertices remain
the outermost glue points.  A closed walk of length n from the origin stays
within distance n // 2, so any n below the safe horizon (twice the distance
from the origin to the nearest vertex whose degree would still grow, minus
one) sees no difference between the approximant and the infinite graph.
That is what makes the two oracles here exact for small n: integer
matrix-vector powering and seeded Monte Carlo simulation.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cells import CellError, CellGraph, require_valid

DEFAULT_EDGE_BUDGET = 10**6


class BudgetError(CellError):
    """Requested approximant exceeds the configured edge budget."""


@dataclass(frozen=True)
class Approximant:
    level: int
    origin: int
    adjacency: tuple[tuple[int, ...], ...]
    defect_set: frozenset[int]
    safe_horizon: int
    cell_name: str | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _distance_to_defect(adjacency, origin: int, defect: frozenset[int]) -> int:
    dist = {origin: 0}
    queue = [origin]
    for v in queue:
        if v in defect:
            return dist[v]
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    raise CellError("no defect vertex reachable; approximant malformed")


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
    For the same reason the cliques share no edge, and the adjacency comes
    from one sort of the directed edges, with no pair repeated.
    """
    if k < 1:
        raise CellError("level must be at least 1")
    if origin_copies < 1:
        raise CellError("need at least one copy at the origin")
    report = require_valid(g, check_automorphisms=False)
    theta = g.theta
    mu = report.mu
    edge_cost = origin_copies * mu**k * theta * (theta - 1) // 2
    if edge_cost > edge_budget:
        raise BudgetError(
            f"level {k} needs {edge_cost} edges, budget is {edge_budget}"
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
    # than 3 * 10^9 vertices, far more than fit in memory as tuples.
    first, second = np.triu_indices(theta, 1)
    lo = cliques[:, first].ravel()
    hi = cliques[:, second].ravel()
    keys = np.sort(np.concatenate([lo * next_id + hi, hi * next_id + lo]))
    bounds = np.zeros(next_id + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // next_id, minlength=next_id), out=bounds[1:])
    targets = (keys % next_id).tolist()
    ends = bounds.tolist()
    adjacency = tuple(tuple(targets[s:e]) for s, e in zip(ends, ends[1:]))

    # Defect vertices are the non-origin boundary ids of every top-level
    # copy: in the infinite graph they would be glued into further copies,
    # so their approximant degree is too small.
    defect = set()
    for c in range(origin_copies):
        for b in range(1, theta):
            defect.add(b + c * block)
    defect_f = frozenset(defect)
    horizon = 2 * _distance_to_defect(adjacency, 0, defect_f) - 1
    return Approximant(
        level=k,
        origin=0,
        adjacency=adjacency,
        defect_set=defect_f,
        safe_horizon=horizon,
        cell_name=g.name,
    )


def approximant_to_text(a: Approximant) -> str:
    lines = [f"vertices {a.num_vertices}", f"origin {a.origin}"]
    for v, nbrs in enumerate(a.adjacency):
        for u in nbrs:
            if v < u:
                lines.append(f"edge {v} {u}")
    return "\n".join(lines) + "\n"


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
    the lcm of the ball degrees keeps the iteration in integers.
    """
    radius = n_max // 2
    dist = {a.origin: 0}
    order = [a.origin]
    for v in order:
        if dist[v] == radius:
            continue
        for u in a.adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                order.append(u)
    index = {v: i for i, v in enumerate(order)}
    depth = [dist[v] for v in order]
    degs = [a.degree(v) for v in order]
    scale = math.lcm(*degs) if degs else 1
    weight = [scale // d for d in degs]
    targets: list[list[int]] = []
    for v in order:
        targets.append([index[u] for u in a.adjacency[v] if u in index])

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


def bounded_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """rng.integers(0, bounds) for uint32 bounds >= 1, drawn the same way.

    numpy draws a value below d with Lemire's multiply-shift method
    (D. Lemire, ACM TOMACS 29, 2019): a 32-bit word u gives m = u * d,
    the value is m >> 32, and u is rejected, and another word drawn, when
    the low word of m is below (2^32 - d) % d; a bound of 1 draws nothing.
    Here every bound above 1 takes its word, in order, from one batch of
    32-bit draws, which is what the one-by-one loop draws unless it
    rejects.  A rejection is rare for small d (probability below
    d / 2^32); from the first rejected bound on, the generator is rewound
    and numpy draws the rest itself.  Values and generator state thus
    match rng.integers(0, bounds) exactly.  Returns int64 values.
    """
    many = bounds > 1
    words = np.zeros(len(bounds), dtype=np.uint32)
    state = rng.bit_generator.state
    words[many] = rng.integers(
        0, 1 << 32, size=np.count_nonzero(many), dtype=np.uint32
    )
    m = np.multiply(words, bounds, dtype=np.uint64)
    out = (m >> 32).view(np.int64)
    low = m.astype(np.uint32)
    near = np.flatnonzero(many & (low < bounds))
    if len(near):
        d = bounds[near]  # in uint32, (-d) % d is (2^32 - d) % d
        bad = near[low[near] < (-d) % d]
        if len(bad):
            first = bad[0]
            rng.bit_generator.state = state
            rng.integers(
                0, 1 << 32, size=np.count_nonzero(many[:first]), dtype=np.uint32
            )
            out[first:] = rng.integers(0, bounds[first:].astype(np.int64))
    return out


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
    walkers; every step draws each walker's neighbour with bounded_draws,
    exactly as rng.integers(0, degrees) would.  Results are bit-for-bit
    reproducible for a fixed (seed, workers, chunk).

    The approximant is held in CSR form, and a walker is held as the
    offset where its vertex's neighbour list starts, so one step is two
    lookups: the degree at that offset, and the start offset of the
    chosen neighbour.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError("need at least one worker")
    deg = np.array([len(nb) for nb in a.adjacency], dtype=np.uint32)
    start = np.zeros(a.num_vertices, dtype=np.int64)
    np.cumsum(deg[:-1], out=start[1:])
    nbr = np.fromiter(
        itertools.chain.from_iterable(a.adjacency),
        dtype=np.int64,
        count=int(deg.sum()),
    )
    deg_at = np.zeros(len(nbr), dtype=np.uint32)
    deg_at[start] = deg
    nbr_start = start[nbr]
    home = start[a.origin]

    streams = np.random.SeedSequence(seed).spawn(workers)
    base, rem = divmod(trials, workers)
    hits = 0
    for w in range(workers):
        todo = base + (1 if w < rem else 0)
        rng = np.random.Generator(np.random.PCG64(streams[w]))
        while todo > 0:
            batch = min(todo, chunk)
            todo -= batch
            at = np.full(batch, home, dtype=np.int64)
            for _ in range(n):
                at = nbr_start[at + bounded_draws(rng, deg_at[at])]
            hits += int(np.count_nonzero(at == home))
    estimate = Fraction(hits, trials)
    p = hits / trials
    std_err = math.sqrt(p * (1 - p) / trials)
    return WalkStats(
        n=n,
        trials=trials,
        hits=hits,
        estimate=estimate,
        std_err=std_err,
        seed=seed,
        workers=workers,
    )


def sufficient_approximant(
    g: CellGraph, n_max: int, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Approximant:
    """The approximant of smallest level whose safe horizon covers n_max.

    The origin-to-boundary distance scales by the cell's boundary distance
    at every refinement, so the needed level is logarithmic in n_max.  The
    estimate is confirmed by building the approximant, which is returned;
    the loop exists for safety, not as a search.
    """
    d_cell = g.bfs_distances(0)[1]
    level = 1
    reach = d_cell
    while 2 * reach - 1 < n_max:
        level += 1
        reach *= d_cell
    for k in range(level, level + 3):
        a = blowup(g, k, edge_budget=edge_budget)
        if a.safe_horizon >= n_max:
            return a
    raise CellError("could not reach the requested horizon within budget")

