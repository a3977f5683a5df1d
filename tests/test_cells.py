"""Cell graphs: parsing, validation, adjacency rows, enumeration."""

import hashlib
import itertools
import json
import math

import pytest

from cellgreen import (
    CellError,
    CellGraph,
    builtin_cell,
    builtin_names,
    enumerate_cells,
    parse_cell,
    validate_cell,
)
from cellgreen.cells import (
    CellParseError,
    _cliques_through,
    _norm_edge,
    _reachable,
    adjacency_rows,
    boundary_doubly_transitive,
    cell_to_json,
    cell_to_text,
    connected_graph_classes,
    has_automorphism,
)
from routes import scan_graph_classes


# sha256 over cell_to_text(g) + g.name of enumerate_cells(2, 8), in order,
# recorded from the canonical-form enumeration.
ENUMERATION_SHA256 = (
    "113e5ce67178d90c797ab99cfe84ca488708ecd2a8ff9a923af633b671cbd5b8"
)


def relabel(g: CellGraph, perm) -> CellGraph:
    """Image of g under a vertex permutation that keeps 0..theta-1 boundary."""
    assert sorted(perm[: g.theta]) == list(range(g.theta))
    return CellGraph(
        g.n,
        g.theta,
        frozenset(_norm_edge(perm[a], perm[b]) for a, b in g.edges),
        name=g.name,
    )


DIAMOND_TEXT = """\
# two ends, two hubs, two middles
vertices 6
boundary 0 1
edge 0 2
edge 1 3
edge 2 4
edge 2 5
edge 3 4
edge 3 5
"""


def canonical_key(g: CellGraph) -> tuple:
    """Minimum edge encoding over boundary-set-preserving permutations.

    A brute force over theta! (n - theta)! relabelings: the reference that
    checks the enumerated cells are pairwise non-isomorphic.
    """
    best = None
    interior = list(g.interior)
    for bperm in itertools.permutations(range(g.theta)):
        for iperm in itertools.permutations(interior):
            perm = list(bperm) + list(iperm)
            enc = tuple(sorted(_norm_edge(perm[a], perm[b]) for a, b in g.edges))
            if best is None or enc < best:
                best = enc
    return (g.n, g.theta, best)


def degree_respecting_perms(m: int, degs: tuple[int, ...]):
    """All permutations of 0..m-1 mapping each vertex to one of equal degree."""
    buckets: dict[int, list[int]] = {}
    for v, dv in enumerate(degs):
        buckets.setdefault(dv, []).append(v)
    groups = list(buckets.values())
    for images in itertools.product(
        *(itertools.permutations(grp) for grp in groups)
    ):
        perm = [0] * m
        for grp, img in zip(groups, images):
            for src, dst in zip(grp, img):
                perm[src] = dst
        yield tuple(perm)


def canon_edges(m: int, edges, degs: tuple[int, ...]) -> tuple:
    """Minimal edge encoding over relabelings onto degree-sorted positions.

    Vertices may land only on positions reserved for their degree, so two
    labeled graphs share an encoding exactly when they are isomorphic.
    """
    order = sorted(range(m), key=lambda v: (-degs[v], v))
    pos_by_deg: dict[int, list[int]] = {}
    for i, v in enumerate(order):
        pos_by_deg.setdefault(degs[v], []).append(i)
    buckets: dict[int, list[int]] = {}
    for v, dv in enumerate(degs):
        buckets.setdefault(dv, []).append(v)
    degrees = list(buckets)
    best = None
    for images in itertools.product(
        *(itertools.permutations(pos_by_deg[d]) for d in degrees)
    ):
        perm = [0] * m
        for d, img in zip(degrees, images):
            for src, dst in zip(buckets[d], img):
                perm[src] = dst
        enc = tuple(sorted(_norm_edge(perm[a], perm[b]) for a, b in edges))
        if best is None or enc < best:
            best = enc
    return best


def canon_edges_graph_classes(m: int) -> tuple:
    """The mask scan keyed by a canonical form: first mask of each class."""
    pairs = list(itertools.combinations(range(m), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        adj = [set() for _ in range(m)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        if len(_reachable(adj, 0)) != m:
            continue
        degs = tuple(len(s) for s in adj)
        key = (tuple(sorted(degs)), canon_edges(m, edges, degs))
        if key not in seen:
            seen.add(key)
            out.append(edges)
    return tuple(out)


def degree_bucket_automorphisms(m: int, edges) -> list[tuple[int, ...]]:
    """Automorphisms of a graph on 0..m-1, searched within degree classes."""
    degs = tuple(sum(v in e for e in edges) for v in range(m))
    return [
        perm
        for perm in degree_respecting_perms(m, degs)
        if all(_norm_edge(perm[a], perm[b]) in edges for a, b in edges)
    ]


def bfs_bipartition(g: CellGraph):
    """Two-coloring by breadth-first search from vertex 0, else None."""
    color = [-1] * g.n
    color[0] = 0
    queue = [0]
    for v in queue:
        for u in g.neighbors(v):
            if color[u] < 0:
                color[u] = 1 - color[v]
                queue.append(u)
            elif color[u] == color[v]:
                return None
    return (
        frozenset(v for v in range(g.n) if color[v] == 0),
        frozenset(v for v in range(g.n) if color[v] == 1),
    )


def four_cycle() -> CellGraph:
    return CellGraph(
        4, 2, frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}), name="c4"
    )


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(CellError):
            CellGraph(3, 2, frozenset({(0, 2), (1, 2), (2, 2)}))

    def test_adjacent_boundary_rejected(self):
        with pytest.raises(CellError):
            CellGraph(3, 2, frozenset({(0, 1), (0, 2), (1, 2)}))

    def test_disconnected_rejected(self):
        with pytest.raises(CellError):
            CellGraph(5, 2, frozenset({(0, 2), (1, 2), (3, 4)}))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(CellError):
            CellGraph(3, 2, frozenset({(0, 2), (1, 3)}))

    def test_degrees_and_distances(self):
        g = builtin_cell("diamond")
        assert g.degrees() == (1, 1, 3, 3, 2, 2)
        assert g.distance(0, 1) == 4
        assert g.distance(0, 5) == 2
        assert g.boundary == (0, 1)
        assert g.interior == (2, 3, 4, 5)

    def test_bipartition_and_is_path(self):
        diamond = builtin_cell("diamond")
        assert diamond.is_bipartite()
        sides = diamond.bipartition()
        assert sides is not None
        assert frozenset({0, 1, 4, 5}) in sides
        assert not diamond.is_path()
        assert builtin_cell("path2").is_path()
        assert builtin_cell("path3").is_path()
        assert not builtin_cell("sierpinski").is_bipartite()

    def test_bipartition_matches_bfs_coloring(self, enumerated_cells):
        cells = list(enumerated_cells) + [builtin_cell(n) for n in builtin_names()]
        for g in cells:
            assert g.bipartition() == bfs_bipartition(g)
        assert any(g.bipartition() is None for g in enumerated_cells)


class TestParsing:
    def test_line_format(self):
        g = parse_cell(DIAMOND_TEXT, name="diamond")
        assert g == builtin_cell("diamond")

    def test_json_format(self):
        g = parse_cell(json.dumps(cell_to_json(builtin_cell("diamond"))))
        assert g == builtin_cell("diamond")

    def test_arbitrary_ids_normalized(self):
        text = "vertices 3\nboundary 10 30\nedge 10 20\nedge 20 30\n"
        assert parse_cell(text) == builtin_cell("path2")

    def test_origin_line_rejected(self):
        # A cell's origin is its first boundary vertex; no line sets it.
        for line in ("origin 0", "origin 1", "origin 7"):
            text = f"vertices 3\nboundary 0 1\n{line}\nedge 0 2\nedge 1 2\n"
            with pytest.raises(CellParseError, match=f"cannot parse: '{line}'") as exc:
                parse_cell(text)
            assert exc.value.line == 3

    def test_syntax_error_carries_line_number(self):
        text = "vertices 3\nboundary 0 1\nedge 0\n"
        with pytest.raises(CellParseError) as exc:
            parse_cell(text)
        assert exc.value.line == 3

    def test_duplicate_edge_rejected(self):
        text = "vertices 3\nboundary 0 1\nedge 0 2\nedge 2 0\nedge 1 2\n"
        with pytest.raises(CellParseError):
            parse_cell(text)

    def test_text_roundtrip(self):
        for name in builtin_names():
            g = builtin_cell(name)
            assert parse_cell(cell_to_text(g)) == g

    def test_json_roundtrip(self):
        for name in builtin_names():
            g = builtin_cell(name)
            assert parse_cell(json.dumps(cell_to_json(g))) == g

    @pytest.mark.parametrize("field, value", [
        ("vertices", 3.0),
        ("vertices", True),
        ("vertices", "3"),
        ("boundary", [0, 1.0]),
        ("boundary", [False, 1]),
        ("boundary", ["0", 1]),
        ("edges", [[0, 2], [1, 2.7]]),
        ("edges", [[0, 2], [True, 2]]),
        ("edges", [[0, 2], [1, "2"]]),
    ])
    def test_json_rejects_non_integer_entries(self, field, value):
        doc = cell_to_json(builtin_cell("path2"))
        doc[field] = value
        with pytest.raises(CellError, match="integers"):
            parse_cell(json.dumps(doc))


class TestValidation:
    def test_diamond_report(self):
        rep = validate_cell(builtin_cell("diamond"))
        assert rep.valid
        assert rep.theta == 2
        assert rep.mu == 6
        assert rep.bipartite
        assert not rep.is_path
        assert rep.doubly_transitive is True
        assert rep.violations == ()

    def test_path2_report(self):
        rep = validate_cell(builtin_cell("path2"))
        assert rep.valid
        assert rep.mu == 2
        assert rep.is_path

    def test_sierpinski_report(self):
        rep = validate_cell(builtin_cell("sierpinski"))
        assert rep.valid
        assert rep.theta == 3
        assert rep.mu == 3
        assert not rep.bipartite
        assert rep.clique_partition is not None
        assert len(rep.clique_partition) == 3

    def test_theta4_report(self):
        rep = validate_cell(builtin_cell("theta4"))
        assert rep.valid
        assert rep.theta == 4
        assert rep.mu == 5
        assert len(rep.clique_partition) == 5

    def test_four_cycle_invalid(self):
        rep = validate_cell(four_cycle())
        assert not rep.valid
        assert any("boundary" in v for v in rep.violations)

    def test_skip_automorphisms_marks_report(self):
        rep = validate_cell(builtin_cell("diamond"), check_automorphisms=False)
        assert rep.doubly_transitive == "skipped"
        assert rep.valid

    def test_long_path_validates(self, long_path_text):
        rep = validate_cell(parse_cell(long_path_text))
        assert rep.valid and rep.is_path
        assert rep.mu == 1200
        assert rep.doubly_transitive is True

    def test_long_triangle_strip_gets_a_report(self, triangle_strip_text):
        g = parse_cell(triangle_strip_text)
        assert (g.n, g.theta, g.num_edges) == (2201, 3, 3300)
        rep = validate_cell(g, check_automorphisms=False)
        assert rep.valid and rep.mu == 1100
        assert len(rep.clique_partition) == 1100
        assert set().union(*rep.clique_partition) == set(range(g.n))
        rep = validate_cell(g)
        assert rep.doubly_transitive is False
        assert not rep.valid

    def test_cliques_in_lexicographic_order(self, chained_triangles_text):
        cells = [builtin_cell("sierpinski"), builtin_cell("theta4")]
        cells.append(parse_cell(chained_triangles_text))
        for g in cells:
            for size in (2, 3, 4):
                expected = [
                    frozenset(c)
                    for c in itertools.combinations(range(g.n), size)
                    if all(
                        _norm_edge(a, b) in g.edges
                        for a, b in itertools.combinations(c, 2)
                    )
                ]
                assert _cliques_through(g, size) == expected

    def test_report_isomorphism_invariant(self):
        g = builtin_cell("diamond")
        base = validate_cell(g)
        for perm in ((0, 1, 3, 2, 5, 4), (0, 1, 2, 3, 5, 4), (1, 0, 3, 2, 4, 5)):
            other = validate_cell(relabel(g, perm))
            assert (base.theta, base.mu, base.bipartite, base.is_path) == (
                other.theta, other.mu, other.bipartite, other.is_path
            )
            assert base.doubly_transitive == other.doubly_transitive
            assert base.violations == other.violations


class TestTransitionMatrix:
    # The step matrix is diag(degrees)^-1 times the adjacency rows.
    def test_diamond_matrix(self):
        g = builtin_cell("diamond")
        assert adjacency_rows(g) == [
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, 1],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0, 0],
        ]
        assert g.degrees() == (1, 1, 3, 3, 2, 2)

    def test_path2_matrix(self):
        g = builtin_cell("path2")
        assert adjacency_rows(g) == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        assert g.degrees() == (1, 1, 2)

    def test_rows_sum_to_one_everywhere(self, enumerated_cells):
        for g in enumerated_cells:
            assert [sum(row) for row in adjacency_rows(g)] == list(g.degrees())


@pytest.fixture(scope="module")
def enumerated_keys(enumerated_cells) -> list[tuple]:
    """canonical_key of each enumerated cell, in enumeration order."""
    return [canonical_key(g) for g in enumerated_cells]


class TestEnumeration:
    def test_interior_class_counts(self):
        assert [len(connected_graph_classes(m)) for m in range(1, 7)] == [
            1, 1, 2, 6, 21, 112,
        ]

    @pytest.mark.parametrize("m", range(1, 6))
    def test_classes_match_canonical_form_scan(self, m):
        classes = tuple(edges for edges, _ in connected_graph_classes(m))
        assert classes == canon_edges_graph_classes(m)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_classes_and_groups_match_the_mask_scan(self, m):
        assert connected_graph_classes(m) == scan_graph_classes(m)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_automorphisms_match_degree_bucket_search(self, m):
        for edges, group in connected_graph_classes(m):
            assert set(group) == set(degree_bucket_automorphisms(m, edges))

    def test_orbits_cover_connected_labeled_graphs(self):
        # Orbit-stabilizer: the classes' orbits under the m! relabelings
        # partition the connected labeled graphs (OEIS A001187).
        for m, labeled in enumerate([1, 1, 4, 38, 728, 26704], start=1):
            assert sum(
                math.factorial(m) // len(group)
                for _, group in connected_graph_classes(m)
            ) == labeled

    def test_enumeration_golden_digest(self, enumerated_cells):
        h = hashlib.sha256()
        for g in enumerated_cells:
            h.update((cell_to_text(g) + g.name).encode())
        assert h.hexdigest() == ENUMERATION_SHA256

    def test_cell_counts_by_size(self):
        assert len(list(enumerate_cells(2, 3))) == 1
        assert len(list(enumerate_cells(2, 4))) == 3
        assert len(list(enumerate_cells(2, 5))) == 8
        assert len(list(enumerate_cells(2, 6))) == 28

    def test_exhaustive_count_and_distinctness(
        self, enumerated_cells, enumerated_keys
    ):
        assert len(enumerated_cells) == 736
        assert len(set(enumerated_keys)) == len(enumerated_cells)

    def test_smallest_is_single_path(self):
        (only,) = enumerate_cells(2, 3)
        assert canonical_key(only) == canonical_key(builtin_cell("path2"))

    def test_diamond_appears(self, enumerated_keys):
        assert canonical_key(builtin_cell("diamond")) in enumerated_keys

    def test_all_path_lengths_appear(self, enumerated_cells):
        paths = [g for g in enumerated_cells if g.is_path()]
        assert sorted(g.n for g in paths) == [3, 4, 5, 6, 7, 8]

    def test_four_cycle_never_emitted(self, enumerated_keys):
        assert canonical_key(four_cycle()) not in enumerated_keys

    def test_every_cell_valid_by_construction(self, enumerated_cells):
        for g in enumerated_cells:
            assert g.theta == 2
            assert g.degree(0) == 1 and g.degree(1) == 1

    def test_relabeled_cell_shares_canonical_key(self):
        g = builtin_cell("diamond")
        assert canonical_key(relabel(g, (0, 1, 3, 2, 5, 4))) == canonical_key(g)
        assert canonical_key(relabel(g, (1, 0, 3, 2, 4, 5))) == canonical_key(g)

    def test_unsupported_theta_rejected(self):
        with pytest.raises(CellError):
            list(enumerate_cells(3, 6))


class TestAutomorphisms:
    def test_swap_detection_matches_brute_force(self):
        for g in enumerate_cells(2, 7):
            fast = boundary_doubly_transitive(g)
            brute = any(
                perm[0] == 1 and perm[1] == 0
                and all(
                    tuple(sorted((perm[a], perm[b]))) in g.edges
                    for a, b in g.edges
                )
                for perm in itertools.permutations(range(g.n))
            )
            assert fast == brute

    def test_forced_extension(self):
        g = builtin_cell("diamond")
        assert has_automorphism(g, {0: 1, 1: 0})
        assert has_automorphism(g, {2: 2, 3: 3})
        assert not has_automorphism(g, {0: 2})

    def test_theta3_double_transitivity(self):
        assert boundary_doubly_transitive(builtin_cell("sierpinski"))
