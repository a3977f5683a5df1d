"""Finite approximants, the exact walk oracle, and the simulator."""

import dataclasses
import hashlib
import io
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellgreen import (
    Approximant,
    BudgetError,
    CellError,
    blowup,
    builtin_cell,
    builtin_names,
    enumerate_cells,
    exact_return_probs,
    green_series,
    cell_functions,
    monte_carlo,
    parse_cell,
    sufficient_approximant,
)
from cellgreen.blowup import SLICE, _draw_below, write_approximant
from cellgreen.cells import clique_partition
from routes import bounded_draws, reference_monte_carlo


def emitted_text(a: Approximant) -> str:
    """What ``blowup --emit`` writes for ``a``."""
    buf = io.StringIO()
    write_approximant(a, buf)
    return buf.getvalue()


def reference_text(a: Approximant) -> str:
    """The edge list built whole from the tuple view, as --emit once did."""
    lines = [f"vertices {a.num_vertices}", f"origin {a.origin}"]
    for v, nbrs in enumerate(a.adjacency()):
        for u in nbrs:
            if v < u:
                lines.append(f"edge {v} {u}")
    return "\n".join(lines) + "\n"


class HashSink:
    """A text stream that keeps only the sha256 and length of what it gets."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.chars = 0

    def write(self, text: str) -> None:
        self.sha.update(text.encode())
        self.chars += len(text)


def reference_distance_to_defect(adjacency, origin, defect):
    """The dict BFS over neighbour tuples that the array BFS replaced."""
    dist = {origin: 0}
    queue = [origin]
    for v in queue:
        if v in defect:
            return dist[v]
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    raise AssertionError("no defect vertex reachable")


def reference_blowup(g, k, origin_copies=1, randomize_identification=None):
    """The set-based refinement that blowup replaced, kept as its oracle."""
    theta = g.theta
    rng = (
        random.Random(randomize_identification)
        if randomize_identification is not None
        else None
    )
    base_cliques = [tuple(sorted(c)) for c in clique_partition(g)]
    cliques = list(base_cliques)
    next_id = g.n
    for _ in range(k - 1):
        refined = []
        for cl in cliques:
            members = list(cl)
            if rng is not None:
                rng.shuffle(members)
            vmap = dict(zip(range(theta), members))
            for v in g.interior:
                vmap[v] = next_id
                next_id += 1
            for base in base_cliques:
                refined.append(tuple(sorted(vmap[v] for v in base)))
        cliques = refined

    block = next_id - 1
    if origin_copies > 1:
        single = list(cliques)
        for c in range(1, origin_copies):
            off = c * block
            for cl in single:
                cliques.append(tuple(sorted(v if v == 0 else v + off for v in cl)))
        next_id += (origin_copies - 1) * block

    nbrs = [set() for _ in range(next_id)]
    for cl in cliques:
        for i in range(theta):
            for j in range(i + 1, theta):
                nbrs[cl[i]].add(cl[j])
                nbrs[cl[j]].add(cl[i])
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    defect = frozenset(
        b + c * block for c in range(origin_copies) for b in range(1, theta)
    )
    return Approximant(
        level=k,
        origin=0,
        indptr=np.cumsum([0] + [len(nb) for nb in adjacency], dtype=np.int64),
        indices=np.array([u for nb in adjacency for u in nb], dtype=np.int32),
        defect_set=defect,
        safe_horizon=2 * reference_distance_to_defect(adjacency, 0, defect) - 1,
        cell_name=g.name,
    )


def reference_return_probs(a, n_max):
    """The transfer-matrix loop over the whole radius-n_max//2 ball, unpruned."""
    radius = n_max // 2
    adjacency = a.adjacency()
    dist = {a.origin: 0}
    order = [a.origin]
    for v in order:
        if dist[v] == radius:
            continue
        for u in adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                order.append(u)
    index = {v: i for i, v in enumerate(order)}
    degs = [a.degree(v) for v in order]
    scale = math.lcm(*degs)
    weight = [scale // d for d in degs]
    targets = [[index[u] for u in adjacency[v] if u in index] for v in order]
    vec = [0] * len(order)
    vec[0] = 1
    probs = [Fraction(1)]
    for n in range(1, n_max + 1):
        nxt = [0] * len(order)
        for i, val in enumerate(vec):
            if val:
                w = val * weight[i]
                for j in targets[i]:
                    nxt[j] += w
        vec = nxt
        probs.append(Fraction(vec[0], scale**n))
    return tuple(probs)


class TestBlowup:
    def test_level_one_is_the_cell(self):
        g = builtin_cell("diamond")
        a = blowup(g, 1)
        assert a.level == 1
        assert a.num_vertices == 6
        assert a.num_edges == 6
        assert a.safe_horizon == 7
        assert a.defect_set == frozenset({1})
        edges = {
            (v, u) for v, nbrs in enumerate(a.adjacency()) for u in nbrs if v < u
        }
        assert edges == g.edges

    def test_edge_counts_scale_by_clique_count(self):
        for name, mu in (("diamond", 6), ("path2", 2), ("sierpinski", 3)):
            g = builtin_cell(name)
            for k in (1, 2, 3):
                theta = g.theta
                expected = mu**k * theta * (theta - 1) // 2
                assert blowup(g, k).num_edges == expected

    def test_sierpinski_level_two(self):
        a = blowup(builtin_cell("sierpinski"), 2)
        assert a.num_vertices == 15
        assert a.num_edges == 27
        assert a.safe_horizon == 7

    def test_horizon_growth(self):
        g = builtin_cell("diamond")
        assert blowup(g, 1).safe_horizon == 7
        assert blowup(g, 2).safe_horizon == 31

    def test_degrees_preserved_off_defect(self):
        a = blowup(builtin_cell("diamond"), 3)
        assert a.degree(0) == 1
        ones = {v for v in range(a.num_vertices) if a.degree(v) == 1}
        assert ones == {0} | a.defect_set
        assert {a.degree(v) for v in range(a.num_vertices)} == {1, 2, 3}

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            blowup(builtin_cell("diamond"), 9)
        with pytest.raises(BudgetError):
            blowup(builtin_cell("diamond"), 3, edge_budget=100)

    @pytest.mark.parametrize("level", [7000, 30_000_000])
    def test_budget_stops_the_cost_product(self, level):
        # 6^level edges is past the budget long before the product ends,
        # and far past the digits that a str() of an int may have.
        started = time.process_time()
        with pytest.raises(BudgetError) as info:
            blowup(builtin_cell("diamond"), level)
        assert time.process_time() - started < 1
        assert str(info.value) == (
            f"level {level} needs more than 1000000 edges, budget is 1000000"
        )
        with pytest.raises(BudgetError, match="^level 9 needs 10077696 edges, "):
            blowup(builtin_cell("diamond"), 9)

    def test_unequal_boundary_distances_rejected(self, chained_triangles_text):
        # The safe horizon 2 D^k - 1 needs every boundary pair D apart.
        g = parse_cell(chained_triangles_text, name="chain")
        with pytest.raises(CellError, match=r"distances \[2, 3\]"):
            blowup(g, 2)
        with pytest.raises(CellError, match="not all equal"):
            sufficient_approximant(g, 5)

    def test_int32_vertex_ids_bound_the_size(self):
        # 6^12 edges pass this budget but not the int32 vertex ids; the
        # check fails before anything is built.
        with pytest.raises(BudgetError, match="int32"):
            blowup(builtin_cell("diamond"), 12, edge_budget=10**12)

    def test_text_rendering(self):
        a = blowup(builtin_cell("path2"), 1)
        text = emitted_text(a)
        lines = text.strip().splitlines()
        assert lines[0] == "vertices 3"
        assert lines[1] == "origin 0"
        assert len(lines) == 2 + a.num_edges

    def test_csr_arrays_are_typed_and_read_only(self):
        a = blowup(builtin_cell("theta4"), 2)
        assert a.indptr.dtype == np.int64
        assert a.indices.dtype == np.int32
        assert len(a.indptr) == a.num_vertices + 1
        assert len(a.indices) == 2 * a.num_edges
        for arr in (a.indptr, a.indices):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_equality_compares_arrays_and_fields(self):
        g = builtin_cell("diamond")
        a = blowup(g, 2)
        assert a == blowup(g, 2)
        assert a != blowup(g, 3)
        assert a != blowup(g, 2, origin_copies=2)
        assert a != a.adjacency()
        flipped = a.indices.copy()
        flipped[[0, -1]] = flipped[[-1, 0]]
        assert a != dataclasses.replace(a, indices=flipped)
        assert a != dataclasses.replace(a, safe_horizon=a.safe_horizon + 1)
        assert a != dataclasses.replace(a, cell_name="other")

    def test_build_memory_stays_near_the_arrays(self):
        # The build holds a few edge-sized int arrays at once: measured at
        # 4.15 times the returned arrays' bytes, and 4.39 times with a
        # Python-list BFS queue.  Per-vertex neighbour tuples, the earlier
        # stored form, peaked at 20 times.
        g = builtin_cell("diamond")
        blowup(g, 2)
        tracemalloc.start()
        try:
            a = blowup(g, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.num_vertices == 37326
        assert peak < 5 * (a.indptr.nbytes + a.indices.nbytes)


class TestEmitGolden:
    # sha256 of approximant_to_text (the `blowup --emit` file), recorded
    # when the approximant was still a tuple of neighbour tuples.
    GOLDEN = [
        ("diamond", 3, 1, None,
         "bc609c60438aafd771d0a6cbb0794213a7cad3066f1df7cc10d6b10c607c76b8"),
        ("path2", 3, 1, None,
         "ac3cf0d9655487b845983ba1ebeb93613bb7bdfacdc47b75c4d1b85bf9da97b2"),
        ("path3", 3, 1, None,
         "9bcea316a5193325a4f1c45b753e8169494529582e8b812cc11ed39bffeb2ac6"),
        ("sierpinski", 3, 1, None,
         "1056a45841153ade18c3da99021235e2c4042f8af27691f435fa74eeb5d53053"),
        ("theta4", 3, 1, None,
         "9432b7702e80996728036d30628444a78b8730ec23b0113823a191ea4524c033"),
        ("diamond", 2, 2, 7,
         "e7c7bce8eed2d13b6c7c2c7cd4e7fc20648b97c14e5679791f39f4e77eabd026"),
    ]

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_emitted_text_unchanged(self, case):
        name, level, copies, seed, digest = case
        a = blowup(
            builtin_cell(name), level,
            origin_copies=copies, randomize_identification=seed,
        )
        text = emitted_text(a)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, 1 << 14])
    def test_chunks_match_the_whole_text(self, chunk, monkeypatch):
        monkeypatch.setattr(sys.modules["cellgreen.blowup"], "EMIT_CHUNK", chunk)
        for name, level, copies, seed, _ in self.GOLDEN:
            a = blowup(
                builtin_cell(name), level,
                origin_copies=copies, randomize_identification=seed,
            )
            assert emitted_text(a) == reference_text(a)

    def test_emit_memory_stays_bounded(self):
        # The lines are written in slices of CSR entries, so the peak does
        # not grow with the approximant: measured at 0.44 times the text's
        # length here.  Building the tuple view, a list of lines and the
        # joined text, as the emit once did, peaked at 11.6 times.
        g = builtin_cell("diamond")
        a = blowup(g, 6)
        write_approximant(blowup(g, 2), HashSink())
        sink = HashSink()
        tracemalloc.start()
        try:
            write_approximant(a, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.sha.hexdigest() == hashlib.sha256(
            reference_text(a).encode()
        ).hexdigest()
        assert peak < sink.chars


class TestExactOracle:
    def test_path2_small_walk_counts(self):
        a = blowup(builtin_cell("path2"), 3)
        rp = exact_return_probs(a, 6)
        assert rp.probs == (
            1, 0, Fraction(1, 2), 0, Fraction(3, 8), 0, Fraction(5, 16)
        )
        assert rp.approximant_only_from is None

    def test_diamond_cell_vs_infinite_graph_at_eight(self):
        rp1 = exact_return_probs(blowup(builtin_cell("diamond"), 1), 8)
        assert rp1.safe_horizon == 7
        assert rp1.approximant_only_from == 8
        assert rp1.probs[8] == Fraction(14, 81)

        rp2 = exact_return_probs(blowup(builtin_cell("diamond"), 2), 8)
        assert rp2.approximant_only_from is None
        assert rp2.probs[8] == Fraction(40, 243)
        assert rp1.probs[:8] == rp2.probs[:8]

    def test_level_independence_within_horizon(self):
        g = builtin_cell("sierpinski")
        shallow = exact_return_probs(blowup(g, 2), 7)
        deep = exact_return_probs(blowup(g, 3), 7)
        assert shallow.probs == deep.probs

    def test_matches_series_route(self):
        g = builtin_cell("diamond")
        cf = cell_functions(g)
        gs = green_series(cf, 12)
        rp = exact_return_probs(blowup(g, 2), 12)
        assert rp.probs == gs.coefficients()

    def test_origin_copies_leave_returns_unchanged(self):
        g = builtin_cell("diamond")
        base = exact_return_probs(blowup(g, 2), 7)
        doubled = blowup(g, 2, origin_copies=2)
        assert doubled.degree(0) == 2
        assert exact_return_probs(doubled, 7).probs == base.probs

    def test_randomized_identification_is_harmless(self):
        g = builtin_cell("diamond")
        base = exact_return_probs(blowup(g, 3), 10)
        for seed in (1, 7, 1234):
            shuffled = blowup(g, 3, randomize_identification=seed)
            assert exact_return_probs(shuffled, 10).probs == base.probs

    def test_sufficient_level_hits_requested_horizon(self, count_calls):
        assert sufficient_approximant(builtin_cell("path2"), 20).level == 4
        assert sufficient_approximant(builtin_cell("diamond"), 4).level == 1
        assert sufficient_approximant(builtin_cell("diamond"), 8).level == 2
        g = builtin_cell("path2")
        for n_max in (4, 10, 16):
            a = sufficient_approximant(g, n_max)
            assert a.safe_horizon >= n_max
            assert a == blowup(g, a.level)
        # One build per request, at the least level whose horizon, found
        # by the reference BFS, covers n_max.
        calls = count_calls("cellgreen.blowup", "blowup")
        for name in builtin_names():
            g = builtin_cell(name)
            horizons = {}
            k = 0
            while not horizons or horizons[k] < 40:
                k += 1
                horizons[k] = reference_blowup(g, k).safe_horizon
            for n_max in range(41):
                del calls[:]
                a = sufficient_approximant(g, n_max)
                assert len(calls) == 1
                assert a.level == min(k for k, h in horizons.items() if h >= n_max)
                assert a.safe_horizon == horizons[a.level]

    def test_negative_step_count_rejected(self):
        a = blowup(builtin_cell("diamond"), 2)
        with pytest.raises(ValueError, match="-1"):
            exact_return_probs(a, -1)

    def test_sufficient_level_respects_budget(self):
        with pytest.raises(BudgetError):
            sufficient_approximant(builtin_cell("path2"), 200, edge_budget=100)


class TestMonteCarlo:
    def test_bit_for_bit_reproducible(self):
        a = blowup(builtin_cell("diamond"), 2)
        one = monte_carlo(a, 4, 50_000, seed=11, workers=3)
        two = monte_carlo(a, 4, 50_000, seed=11, workers=3)
        assert one == two
        assert one.hits == two.hits

    def test_worker_split_changes_stream_but_not_statistics(self):
        a = blowup(builtin_cell("diamond"), 2)
        single = monte_carlo(a, 4, 50_000, seed=11, workers=1)
        multi = monte_carlo(a, 4, 50_000, seed=11, workers=4)
        assert single.trials == multi.trials == 50_000
        sigma = max(single.std_err, multi.std_err, 1e-9)
        assert abs(float(single.estimate) - float(multi.estimate)) < 8 * sigma

    def test_estimate_near_exact_value(self):
        a = blowup(builtin_cell("diamond"), 2)
        stats = monte_carlo(a, 4, 100_000, seed=3, workers=2)
        exact = Fraction(2, 9)
        assert stats.std_err < 0.01
        assert abs(float(stats.estimate) - float(exact)) <= 4 * stats.std_err

    def test_odd_steps_cannot_return(self):
        a = blowup(builtin_cell("diamond"), 1)
        stats = monte_carlo(a, 3, 10_000, seed=5)
        assert stats.hits == 0
        assert stats.estimate == 0

    def test_negative_step_count_rejected(self):
        a = blowup(builtin_cell("diamond"), 2)
        with pytest.raises(ValueError, match="-2"):
            monte_carlo(a, -2, 10, seed=0)

    def test_estimate_is_hit_ratio(self):
        a = blowup(builtin_cell("path2"), 2)
        stats = monte_carlo(a, 2, 40_000, seed=9, workers=2)
        assert stats.estimate == Fraction(stats.hits, stats.trials)
        assert abs(float(stats.estimate) - 0.5) < 0.02

    def test_walk_memory_stays_near_one_batch(self):
        # The slices work in buffers made once, so the walk holds little
        # beyond the offsets of two batches (2 MiB each for the default
        # chunk; the old batch lives until the next is made): the traced
        # peak was 4.68 MiB here, and 9.71 MiB when every step made
        # batch-sized temporaries.
        a = blowup(builtin_cell("diamond"), 5)
        monte_carlo(a, 2, 10, seed=0)
        tracemalloc.start()
        try:
            stats = monte_carlo(a, 40, 600_000, seed=12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.hits == 37582
        assert peak < 2.5 * 8 * (1 << 18)


class TestAgainstReferences:
    """The array-built approximant and the pruned walk counts against the
    set-based and unpruned loops they replaced."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_blowup_matches_reference_on_builtins(self, name):
        g = builtin_cell(name)
        for k in (1, 2, 3, 4):
            for copies in (1, 2, 3):
                for seed in (None, 0, 7):
                    kwargs = dict(origin_copies=copies, randomize_identification=seed)
                    assert blowup(g, k, **kwargs) == reference_blowup(g, k, **kwargs)

    def test_blowup_matches_reference_on_enumerated_cells(self):
        for i, g in enumerate(enumerate_cells(2, 7)):
            if i % 5 == 0:
                for k in (1, 2, 3):
                    assert blowup(g, k) == reference_blowup(g, k)
                assert blowup(g, 2, origin_copies=2, randomize_identification=i) == (
                    reference_blowup(g, 2, origin_copies=2, randomize_identification=i)
                )

    @pytest.mark.parametrize("name", builtin_names())
    def test_safe_horizon_matches_reference_bfs_on_builtins(self, name):
        g = builtin_cell(name)
        for k in (1, 2, 3, 4, 5):
            for copies in (1, 2, 3):
                for seed in (None, 0, 7):
                    a = blowup(g, k, origin_copies=copies, randomize_identification=seed)
                    reach = reference_distance_to_defect(a.adjacency(), 0, a.defect_set)
                    assert a.safe_horizon == 2 * reach - 1

    def test_safe_horizon_matches_reference_bfs_on_enumerated_cells(
        self, enumerated_cells
    ):
        for i, g in enumerate(enumerate_cells(2, 7)):
            if i % 5 == 0:
                for k, copies in ((1, 1), (2, 1), (3, 1), (2, 2)):
                    a = blowup(g, k, origin_copies=copies, randomize_identification=i)
                    reach = reference_distance_to_defect(a.adjacency(), 0, a.defect_set)
                    assert a.safe_horizon == 2 * reach - 1
        for g in enumerated_cells:
            for k in (1, 2):
                a = blowup(g, k)
                reach = reference_distance_to_defect(a.adjacency(), 0, a.defect_set)
                assert a.safe_horizon == 2 * reach - 1

    @pytest.mark.parametrize("name", builtin_names())
    def test_pruned_walk_counts_match_reference(self, name):
        g = builtin_cell(name)
        for k in (1, 2, 3):
            a = blowup(g, k, origin_copies=1 + k % 2, randomize_identification=k)
            h = a.safe_horizon
            for n_max in (0, 1, 2, 7, 8, h, h + 1, h + 6):
                assert exact_return_probs(a, n_max).probs == reference_return_probs(a, n_max)

    def test_pruned_walk_counts_match_reference_on_enumerated_cells(self):
        for i, g in enumerate(enumerate_cells(2, 7)):
            if i % 5 == 0:
                a = blowup(g, 1 + i % 3)
                for n_max in (3, 2 * a.safe_horizon + 5):
                    assert exact_return_probs(a, n_max).probs == (
                        reference_return_probs(a, n_max)
                    )


bounds_lists = st.lists(
    st.one_of(
        st.just(1),
        st.integers(2, 6),
        st.integers(2**31, 2**32 - 1),
    ),
    max_size=41,
)


class TestBoundedDraws:
    @given(st.integers(0, 2**64 - 1), bounds_lists)
    @example(0, [])
    @example(1, [1])
    @example(2, [1, 1, 1])
    @example(3, [2, 3, 4, 5, 6])
    @example(4, [3, 1, 2**31, 2**32 - 1, 1, 2**31 + 1, 6])
    def test_same_values_and_state_as_numpy(self, seed, bounds):
        mine = np.random.Generator(np.random.PCG64(seed))
        ref = np.random.Generator(np.random.PCG64(seed))
        got = bounded_draws(mine, np.array(bounds, dtype=np.uint32))
        want = ref.integers(0, np.array(bounds, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert mine.bit_generator.state == ref.bit_generator.state
        assert mine.integers(0, 2**32) == ref.integers(0, 2**32)

    def test_rejections_take_the_sequential_route(self):
        # (2^32 - d) % d is about 2^31 for d = 2^31 + 1, so about half the
        # words are rejected; more words are drawn than there are bounds.
        # Both the batch draw and the fused draw rewind and let numpy draw.
        bounds = np.full(64, 2**31 + 1, dtype=np.uint32)
        plain = np.random.Generator(np.random.PCG64(5))
        plain.integers(0, 2**32, size=64, dtype=np.uint32)
        ref = np.random.Generator(np.random.PCG64(5))
        want = ref.integers(0, bounds.astype(np.int64)).tolist()
        mine = np.random.Generator(np.random.PCG64(5))
        got = bounded_draws(mine, bounds)
        assert mine.bit_generator.state != plain.bit_generator.state
        assert got.tolist() == want
        assert mine.bit_generator.state == ref.bit_generator.state
        fused = np.random.Generator(np.random.PCG64(5))
        out = np.empty(64, dtype=np.uint64)
        carry = _draw_below(fused, bounds, np.empty(64, np.uint32), out, (0, 0))
        assert fused.bit_generator.state["state"] != plain.bit_generator.state["state"]
        assert out.tolist() == want
        assert_same_live_state(fused, carry, ref)


def assert_same_live_state(mine, carry, ref):
    """mine, holding its buffered half-word as carry, is where ref is.

    numpy leaves a stale uinteger behind once the half-word is used, so
    uinteger is compared only while has_uint32 is 1.
    """
    want = ref.bit_generator.state
    assert mine.bit_generator.state["state"] == want["state"]
    assert carry[0] == want["has_uint32"]
    if carry[0]:
        assert carry[1] == want["uinteger"]


class TestFusedDraws:
    # Successive calls share one words buffer, so slots of bound 1 keep
    # the words of earlier calls; odd word counts leave a half-word to
    # carry into the next call; bounds from 2^31 up reject often enough
    # to reach the rewind, also with a half-word carried in.
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(bounds_lists, min_size=1, max_size=6),
    )
    @example(0, [[]])
    @example(1, [[1], [1, 1, 1], []])
    @example(2, [[2, 3, 4], [5], [6, 1, 2], [3, 1, 1]])
    @example(3, [[3], [2**31 + 1] * 8, [2], [2**31 + 1] * 7])
    @example(4, [[3, 1, 2**31, 2**32 - 1, 1, 2**31 + 1, 6], [1], [2, 2]])
    def test_same_values_and_state_as_numpy(self, seed, calls):
        mine = np.random.Generator(np.random.PCG64(seed))
        ref = np.random.Generator(np.random.PCG64(seed))
        words = np.zeros(max(map(len, calls)), dtype=np.uint32)
        carry = (0, 0)
        for bounds in calls:
            d = np.array(bounds, dtype=np.uint32)
            out = np.empty(len(d), dtype=np.uint64)
            carry = _draw_below(mine, d, words, out, carry)
            want = ref.integers(0, d.astype(np.int64))
            assert out.tolist() == want.tolist()
            assert_same_live_state(mine, carry, ref)


class TestMonteCarloGolden:
    # Hits recorded with the one-call-per-step rng.integers(0, degrees)
    # walk that bounded_draws replaced.  path2 at level 1 has only the
    # middle vertex of degree above 1; theta4 and path3 split the trials
    # over several streams; the last five use chunks that do not divide
    # the trial count.  The last two were recorded with the bounded_draws
    # walk, before the fused step: diamond's batches of 40,000 straddle a
    # slice, and theta4 has no vertex of degree 1 and two streams of
    # 35,000 trials.
    GOLDEN = [
        ("diamond", 5, 40, 30000, 17, 1, 1 << 18, 1823),
        ("path2", 1, 11, 20001, 3, 1, 1 << 18, 0),
        ("path2", 1, 12, 20001, 3, 1, 1 << 18, 10019),
        ("path2", 3, 12, 20001, 3, 2, 1 << 18, 4445),
        ("theta4", 2, 24, 30000, 8, 3, 1 << 18, 1349),
        ("sierpinski", 3, 16, 25000, 2, 2, 4096, 991),
        ("diamond", 2, 10, 10000, 4, 1, 999, 1521),
        ("path3", 3, 30, 9999, 2**32 - 1, 4, 1000, 1384),
        ("diamond", 4, 24, 90001, 21, 1, 40000, 8291),
        ("theta4", 3, 18, 70001, 5, 2, 1 << 18, 3899),
    ]

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_hits_unchanged(self, case):
        name, level, n, trials, seed, workers, chunk, hits = case
        a = blowup(builtin_cell(name), level)
        stats = monte_carlo(a, n, trials, seed, workers=workers, chunk=chunk)
        assert stats.hits == hits


MC_CELLS = [builtin_cell(name) for name in builtin_names()] + list(
    enumerate_cells(2, 6)
)
CHUNKS = [1, 999, SLICE - 1, SLICE + 1, 40_000, 1 << 18]


class TestAgainstReferenceWalk:
    """monte_carlo against the walk that draws each step with one
    rng.integers(0, degrees) call."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(range(len(MC_CELLS))),
        st.integers(1, 3),
        st.sampled_from(CHUNKS),
        st.integers(1, 3),
        st.integers(0, 10),
        st.one_of(st.integers(1, 99), st.integers(SLICE - 2, 4 * SLICE)),
        st.integers(0, 2**32 - 1),
    )
    @example(0, 2, 1 << 18, 1, 8, 3 * SLICE + 7, 7)  # diamond: a leaf origin
    @example(4, 3, 40_000, 3, 6, 3 * SLICE + 7, 11)  # theta4: no leaf
    @example(1, 1, 1, 1, 9, 40, 3)
    def test_same_hits(self, index, level, chunk, workers, n, trials, seed):
        if chunk == 1:
            trials = 1 + trials % 40  # one walker a batch: a Python loop each
        a = blowup(MC_CELLS[index], level, edge_budget=20_000)
        stats = monte_carlo(a, n, trials, seed, workers=workers, chunk=chunk)
        assert stats.hits == reference_monte_carlo(a, n, trials, seed, workers, chunk)
