import hashlib
from itertools import combinations
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demkit import (
    CapExceededError,
    EnumerationCapExceededError,
    Graph,
    GraphError,
    build,
    dem_number,
    dem_value,
    greedy_dem,
    is_dem_set,
    join,
    monitor_matrix,
    monitor_matrix_naive,
    monitored_edges,
    monitored_edges_naive,
    monitored_pairs,
    parse_expr,
    vertex_cover_number,
)
from demkit import hitting, products
from demkit.hitting import (
    _components,
    bits,
    lexicographically_smallest,
    minimum_hitting_set,
    partition_bound,
    reduce_columns,
)
from demkit.products import cartesian, factor_layers

import oracles
from conftest import (
    bipartite,
    book,
    complete,
    connected_graphs,
    cycle,
    path,
    random_connected,
    random_tree,
)


class TestMonitoredPairs:
    def test_path_far_edge(self):
        g = path(3)
        assert monitored_pairs(g, {0}, g.edge_id(1, 2)) == {(0, 2)}

    def test_path_bridge_at_probe(self):
        g = path(3)
        assert monitored_pairs(g, {0}, g.edge_id(0, 1)) == {(0, 1), (0, 2)}

    def test_cycle_opposite_edge_unseen(self):
        # frozen from the brute-force rows on the 4-cycle and on it minus (1,2)
        g = cycle(4)
        assert monitored_pairs(g, {0}, g.edge_id(1, 2)) == set()


class TestMonitoredEdges:
    def test_tree_probe_sees_everything(self):
        g = path(3)
        assert monitored_edges(g, 0) == {0, 1}

    def test_cycle_probe_sees_incident_only(self):
        g = cycle(4)
        assert monitored_edges(g, 0) == {g.edge_id(0, 1), g.edge_id(0, 3)}

    def test_complete_probe_sees_incident_only(self):
        g = complete(4)
        assert monitored_edges(g, 0) == {
            g.edge_id(0, 1),
            g.edge_id(0, 2),
            g.edge_id(0, 3),
        }


class TestMonitorMatrix:
    def test_path_all_ones(self):
        # every probe monitors both edges
        assert monitor_matrix(path(3)) == (0b111, 0b111)

    def test_cycle_rows_are_incident_edges(self):
        g = cycle(4)
        mm = monitor_matrix(g)
        for x in range(4):
            incident = {e for e, (u, v) in enumerate(g.edges) if x in (u, v)}
            assert {e for e, col in enumerate(mm) if col >> x & 1} == incident

    def test_book_hub_rows_cover_all_columns(self):
        g = book(2)
        mm = monitor_matrix(g)
        assert len(mm) == g.m and all(col & 0b11 for col in mm)

    def test_endpoints_always_monitor_their_edge(self):
        for g in (cycle(6), book(3), bipartite(2, 4), complete(5)):
            mm = monitor_matrix(g)
            for eid, (u, v) in enumerate(g.edges):
                assert mm[eid] >> u & 1 and mm[eid] >> v & 1

    def test_cap(self):
        with pytest.raises(CapExceededError):
            monitor_matrix(cycle(30))


class TestOracleEquivalence:
    """The parent-count route must agree with the recompute-everything
    oracle, and the exact solver with the exhaustive-subset oracle."""

    def test_rows_match_naive_on_families(self):
        for g in (path(5), cycle(7), complete(5), book(4), bipartite(3, 3)):
            for x in range(g.n):
                assert monitored_edges(g, x) == monitored_edges_naive(g, x)

    def test_matrix_matches_naive_on_random_graphs(self):
        for seed in range(20):
            g = random_connected(4 + seed % 4, 1, 2, 2000 + seed)
            assert monitor_matrix(g) == monitor_matrix_naive(g)

    def test_matrix_matches_definitional_oracle(self):
        for g in (cycle(5), book(3), bipartite(2, 3), random_connected(7, 1, 2, 77)):
            mm = monitor_matrix(g)
            cols = oracles.monitor_columns(g.n, list(g.edges))
            assert [set(bits(col)) for col in mm] == cols

    def test_one_bfs_per_probe(self, bfs_sources):
        # every probe's BFS runs in one all-sources sweep, and no single one
        # runs beside it
        for g in (path(6), cycle(7), book(3), random_connected(12, 1, 2, 8)):
            bfs_sources.clear()
            monitor_matrix(g)
            assert bfs_sources == ["all"]

    @pytest.mark.parametrize("spec", ["path:24", "cycle:24", "book:22"])
    def test_no_factorisation_distances_on_prime_graphs(self, bfs_sources, spec):
        # each has an edge on no chordless square, so dem_number asks for
        # the factor layers without one more BFS
        g = build(parse_expr(spec))
        dem_number(g)
        assert bfs_sources == ["all"]

    @pytest.mark.parametrize(
        "spec",
        ["cartesian(cycle:4|cycle:6)", "hypercube:4", "cartesian(complete:4|complete:6)"],
    )
    def test_one_set_of_distance_rows_on_products(self, bfs_sources, spec):
        # each passes the square test, so factor_layers reads distances too:
        # the sides monitor_matrix has already computed
        assert factor_layers(build(parse_expr(spec)))
        g = build(parse_expr(spec))
        bfs_sources.clear()
        dem_number(g)
        assert bfs_sources == ["all"]

    def test_solver_matches_exhaustive_search(self):
        for seed in range(12):
            g = random_connected(5 + seed % 3, 1, 2, 3000 + seed)
            value = oracles.brute_dem(g.n, list(g.edges))
            assert dem_number(g).value == dem_value(g) == value


class TestIsDemSet:
    def test_any_single_vertex_monitors_a_tree(self):
        for t in (path(6), bipartite(1, 4), random_tree(9, 4)):
            assert all(is_dem_set(t, {x}) for x in range(t.n))

    def test_cycle_pair(self):
        assert is_dem_set(cycle(4), {0, 2})

    def test_book_hub_plus_page_fails(self):
        assert not is_dem_set(book(3), {0, 2})

    def test_hitting_set_equivalence_exhaustive(self):
        """A set monitors everything iff it intersects every edge's monitor
        list; checked over every subset of every small graph."""
        for g in (cycle(5), book(2), path(4), complete(4), bipartite(2, 3)):
            cols = oracles.monitor_columns(g.n, list(g.edges))
            mm = monitor_matrix(g)
            for r in range(g.n + 1):
                for subset in combinations(range(g.n), r):
                    expected = all(c & set(subset) for c in cols)
                    assert is_dem_set(g, subset, mm) == expected


class TestDemNumber:
    def test_complete(self):
        assert dem_number(complete(5)).value == 4

    def test_cycle(self):
        assert dem_number(cycle(6)).value == 2

    def test_book_unique_minimum_set(self):
        result = dem_number(book(4), enumerate_all=True)
        assert result.value == 2
        assert result.all_minimum_sets == ((0, 1),)

    def test_complete_bipartite(self):
        assert dem_number(bipartite(3, 4)).value == 3

    def test_witness_is_valid_and_minimal(self):
        for g in (cycle(7), book(3), complete(4), bipartite(2, 4)):
            result = dem_number(g)
            assert len(result.witness) == result.value
            assert is_dem_set(g, result.witness)

    def test_witness_matches_enumeration_head(self):
        for g in (cycle(5), complete(4), bipartite(2, 3)):
            plain = dem_number(g)
            full = dem_number(g, enumerate_all=True)
            assert plain.witness == full.all_minimum_sets[0]
            assert all(is_dem_set(g, s) for s in full.all_minimum_sets)

    def test_enumeration_is_complete(self):
        g = cycle(4)
        result = dem_number(g, enumerate_all=True)
        assert result.all_minimum_sets == ((0, 2), (1, 3))
        expected = [
            set(s)
            for s in combinations(range(g.n), result.value)
            if is_dem_set(g, s)
        ]
        assert [set(s) for s in result.all_minimum_sets] == expected

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapExceededError):
            dem_number(complete(5), enumerate_all=True, enumeration_cap=3)

    def test_cap(self):
        with pytest.raises(CapExceededError) as by_number:
            dem_number(cycle(25))
        with pytest.raises(CapExceededError) as by_value:
            dem_value(cycle(25))
        assert str(by_value.value) == str(by_number.value)
        assert dem_number(cycle(25), max_n=25).value == dem_value(cycle(25), max_n=25)

    def test_single_vertex(self):
        from demkit import Graph

        result = dem_number(Graph(1, []), enumerate_all=True)
        assert result.value == 0 and result.all_minimum_sets == ((),)
        with pytest.raises(EnumerationCapExceededError):
            dem_number(Graph(1, []), enumerate_all=True, enumeration_cap=0)

    # search nodes per graph: a change that moves the search shows here
    PINNED_NODES = {
        "cartesian(path:4|cycle:5)": 1,
        "cartesian(complete:4|complete:6)": 1,
        "cartesian(cycle:4|cycle:6)": 1,
        "hypercube:4": 1,
        "cartesian(complete:5|complete:6)": 1,
        "cartesian(cycle:3|cycle:11)": 1,
        "cartesian(path:4|cycle:8)": 1,
        "hypercube:5": 1,
        "cartesian(book:2|book:4)": 13,
        "cartesian(cycle:5|cycle:6)": 1,
        "cartesian(cycle:6|cycle:6)": 1,
        "cartesian(book:2|book:2)": 60,
        # past the cap: the greedy set less its redundant vertices meets the
        # root bound on the first two
        "cartesian(cycle:10|cycle:10)": 1,
        "cartesian(complete:7|complete:7)": 1,
        "cartesian(book:4|book:4)": 29,
        # graphs on which the search really branches
        "join(path:6|cycle:8)": 13,
        "corona(path:4|complete:4)": 20,
        "cycle:24": 23,
        "cluster(cycle:6|cycle:4)": 6,
        "book:22": 3,
        "randconn:24:1/2:seed=3": 38,  # conftest.random_connected(24, 1, 2, 3)
        "randconn:22:1/4:seed=4": 115,
    }

    @pytest.mark.parametrize("spec", list(PINNED_NODES))
    def test_nodes_explored_is_pinned(self, spec):
        g = build(parse_expr(spec))
        result = dem_number(g, max_n=g.n)
        assert result.nodes_explored == self.PINNED_NODES[spec]
        assert dem_value(g, max_n=g.n) == result.value

    def test_a_capped_search_that_finds_no_set_walks_from_the_greedy_set(self):
        # the raw greedy set (3, 5) has 2 vertices, the pruned seed on the
        # reduced columns 3: the value search starts from (3, 5) and finds
        # no smaller set
        g = build(parse_expr("randconn:8:1/2:seed=0"))
        result = dem_number(g)
        assert (result.value, result.witness) == (2, (1, 6))
        assert (result.nodes_explored, result.greedy) == (1, (3, 5))
        matrix = monitor_matrix(g)
        layers = hitting.Layers(factor_layers(g))
        cols = reduce_columns(matrix)
        assert minimum_hitting_set(cols, upper=(3, 5), parts=layers) == (2, 1)
        assert layers.found == 1 << 3 | 1 << 5

    @pytest.mark.parametrize(
        "spec, columns, kept",
        [("cartesian(cycle:5|cycle:6)", 60, 60), ("cluster(cycle:6|cycle:4)", 30, 12)],
    )
    def test_the_value_search_builds_no_greedy_set_twice(
        self, monkeypatch, spec, columns, kept
    ):
        greedy = []
        original = hitting.greedy_hitting

        def recording(cols):
            greedy.append(sorted(cols))
            return original(cols)

        monkeypatch.setattr(hitting, "greedy_hitting", recording)
        g = build(parse_expr(spec))
        matrix = monitor_matrix(g, max_n=g.n)
        reduced = reduce_columns(matrix)
        assert (len(matrix), len(reduced)) == (columns, kept)
        result = dem_number(g, max_n=g.n)
        assert result.nodes_explored == self.PINNED_NODES[spec]
        # the greedy set of every column, for DemResult.greedy, is built
        # once: where the reduction keeps every column, the value search
        # seeds from it. Where it drops some, the search seeds from the
        # greedy sets of the reduced columns, here one per component
        assert greedy.count(sorted(matrix)) == 1
        if kept < columns:
            assert all(sorted(comp) in greedy for comp in _components(reduced))

    @pytest.mark.parametrize(
        "spec, value",
        [
            ("cartesian(cycle:4|cartesian(cycle:5|cycle:5))", 50),
            ("cartesian(path:3|cartesian(cycle:5|cycle:5))", 30),
        ],
    )
    def test_three_factor_value_closes_at_the_root(self, spec, value):
        # the partition bound at the root meets the minimal seed: no branching
        g = build(parse_expr(spec))
        matrix = monitor_matrix(g, max_n=g.n)
        cols = reduce_columns(matrix)
        upper = greedy_dem(g, matrix)
        assert len(upper) > value  # the greedy set alone would leave a gap
        assert minimum_hitting_set(
            cols, upper=upper, parts=factor_layers(g)
        ) == (value, 1)

    # witnesses of the walk that decided every candidate by an exact solve
    # (11 s for the second); the walk that descends under a tight bound
    # must reach the same sets
    THREE_FACTOR_WITNESSES = {
        "cartesian(path:3|cartesian(cycle:5|cycle:5))": (
            0, 1, 5, 6, 12, 13, 17, 19, 23, 24, 25, 27, 31, 32, 35, 39, 43, 44,
            46, 48, 53, 54, 58, 59, 61, 62, 65, 66, 70, 72,
        ),
        "cartesian(cycle:4|cartesian(cycle:5|cycle:5))": (
            0, 1, 2, 5, 6, 7, 10, 11, 12, 18, 19, 23, 24, 28, 29, 33, 34, 38,
            39, 40, 41, 42, 45, 46, 47, 50, 51, 52, 55, 56, 57, 60, 61, 62, 68,
            69, 73, 74, 78, 79, 83, 84, 88, 89, 90, 91, 92, 95, 96, 97,
        ),
    }

    @pytest.mark.parametrize("spec", list(THREE_FACTOR_WITNESSES))
    def test_three_factor_witness_is_pinned(self, spec):
        g = build(parse_expr(spec))
        result = dem_number(g, max_n=g.n)
        assert result.witness == self.THREE_FACTOR_WITNESSES[spec]
        assert result.value == len(result.witness)

    def test_three_factor_witness_monitors_every_edge(self):
        # re-checked from the definition; the oracle takes about 1.3 s here
        spec = "cartesian(path:3|cartesian(cycle:5|cycle:5))"
        g = build(parse_expr(spec))
        witness = set(self.THREE_FACTOR_WITNESSES[spec])
        assert all(c & witness for c in oracles.monitor_columns(g.n, list(g.edges)))

    def test_three_cycles_of_six(self):
        # no exact-solve walk finished here in 300 s
        g = build(parse_expr("cartesian(cycle:6|cartesian(cycle:6|cycle:6))"))
        result = dem_number(g, max_n=g.n)
        assert result.value == 72 and len(result.witness) == 72
        assert is_dem_set(g, result.witness)

    # (count, sha256 of repr(all_minimum_sets)): any change in the listed
    # sets or in their order shows here, where no report prints them all
    GOLDEN_ENUMERATIONS = {
        "cartesian(path:4|cycle:5)": (
            4320, "b10f4041699acd308ad5968914614ba0c6edd7008beed8cbfe9a14f2075e6c38"
        ),
        "cartesian(complete:4|complete:6)": (
            360, "d90e5479cd22df985fcc18d6ee42db9af44b9d57f9aa115e2d3963deeae7a3c0"
        ),
        "corona(path:4|complete:4)": (
            256, "170add3a56708fa51e26066dea5382dfbba4fb73956b2d2e32e392c3f0ca49eb"
        ),
        "cycle:24": (
            252, "e66e27e382c9dcbf94cc329146d8c6f299aa544f68a92e41a64ddc4d99c2cadb"
        ),
        "cartesian(cycle:4|cycle:6)": (
            38, "e329f65378bbd3f890a41c6c610a611b5909ac328db4ee220eabdb9b145cd380"
        ),
        "cartesian(cycle:6|cycle:6)": (
            348, "f7c3bb4c41e60d5d550058b49ce69fb60f2b02b63240bcc1c5b90f52c48bb071"
        ),
        "cartesian(path:4|cycle:8)": (
            744, "2b192a771cc09f8d49f7d4199db47c7ee48980efae80f3ac312b28e7ba7b268d"
        ),
        "cartesian(complete:6|complete:7)": (
            5040, "bd7023f0fcb9d5b3d40b3c3fd61c5ced18121d127534eb711b88fe78c89ff42e"
        ),
    }

    @pytest.mark.parametrize("spec", list(GOLDEN_ENUMERATIONS))
    def test_enumeration_is_pinned(self, spec):
        g = build(parse_expr(spec))
        sets = dem_number(g, enumerate_all=True, max_n=g.n).all_minimum_sets
        count, digest = self.GOLDEN_ENUMERATIONS[spec]
        assert len(sets) == count
        assert hashlib.sha256(repr(sets).encode()).hexdigest() == digest

    def test_json_document(self):
        doc = dem_number(book(2), enumerate_all=True).to_json_dict()
        assert list(doc) == ["n", "m", "dem", "witness", "all_minimum_sets", "nodes_explored"]
        assert doc["n"] == 4 and doc["m"] == 5
        assert doc["dem"] == 2 and doc["witness"] == [0, 1]


class TestGreedy:
    def test_tree_single_probe(self):
        assert len(greedy_dem(random_tree(10, 3))) == 1

    def test_complete_trace(self):
        assert greedy_dem(complete(4)) == (0, 1, 2)

    def test_cycle_trace(self):
        assert greedy_dem(cycle(4)) == (0, 2)

    def test_valid_and_at_least_optimal(self):
        for seed in range(15):
            g = random_connected(5 + seed % 4, 1, 2, 4000 + seed)
            chosen = greedy_dem(g)
            assert is_dem_set(g, chosen)
            assert len(chosen) >= dem_number(g).value


class TestTheoremLevelProperties:
    def test_minimum_covers_monitor_everything(self):
        for g in (cycle(6), book(3), complete(5), random_connected(8, 1, 2, 99)):
            assert is_dem_set(g, vertex_cover_number(g).witness)

    def test_dem_at_most_cover_at_most_n_minus_1(self):
        for seed in range(15):
            g = random_connected(4 + seed % 6, 1, 2, 5000 + seed)
            c = vertex_cover_number(g).value
            assert dem_number(g).value <= c <= g.n - 1

    def test_join_probes_see_incident_edges_only(self):
        """In a join of two graphs of order >= 2, every probe monitors exactly
        its incident edges, so monitoring sets are exactly vertex covers."""
        pairs = [
            (path(2), path(3)),
            (path(3), cycle(4)),
            (cycle(3), complete(3)),
            (path(4), bipartite(2, 2)),
        ]
        for a, b in pairs:
            g, _ = join(a, b)
            for x in range(g.n):
                incident = {e for e, (u, v) in enumerate(g.edges) if x in (u, v)}
                assert monitored_edges(g, x) == incident
            assert dem_number(g).value == vertex_cover_number(g).value

    def test_dem_one_iff_tree_exhaustive(self):
        for n in range(2, 6):
            for edges in oracles.connected_edge_subsets(n):
                from demkit import Graph

                g = Graph(n, edges)
                assert (dem_number(g).value == 1) == g.is_tree()

    def test_dem_one_iff_tree_seeded(self):
        for seed in range(10):
            g = random_connected(6, 1, 2, 6000 + seed)
            assert (dem_number(g).value == 1) == g.is_tree()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_endpoint_detection_property(seed):
    g = random_connected(7, 1, 2, seed)
    mm = monitor_matrix(g)
    for eid, (u, v) in enumerate(g.edges):
        col = mm[eid]
        assert (col >> u) & 1 and (col >> v) & 1


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_parent_count_rows_match_the_oracles(g):
    mm = monitor_matrix(g)
    assert mm == monitor_matrix_naive(g)
    assert [set(bits(col)) for col in mm] == oracles.monitor_columns(g.n, list(g.edges))
    for x in range(g.n):
        assert monitored_edges(g, x) == monitored_edges_naive(g, x)
    for x in (-1, g.n):
        for route in (monitored_edges, monitored_edges_naive):
            with pytest.raises(GraphError):
                route(g, x)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_n=8))
def test_value_and_witness_match_the_oracles(g):
    """The exact value is brute_dem's, and the witness is the first minimum
    subset in combinations order that hits every definitional column."""
    result = dem_number(g)
    edges = list(g.edges)
    assert result.value == oracles.brute_dem(g.n, edges)
    columns = oracles.monitor_columns(g.n, edges)
    first = next(
        subset
        for subset in combinations(range(g.n), result.value)
        if all(col & set(subset) for col in columns)
    )
    assert result.witness == first


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 10_000))
def test_value_stage_is_dem_numbers_value(n, num, seed):
    g = random_connected(n, num, 4, seed)
    assert dem_value(g) == dem_number(g).value


def _without_partitions(g):
    """Value, witness and nodes of the search with no partition bound, on
    the reduced columns that ``dem_number`` solves."""
    cols = reduce_columns(monitor_matrix(g, max_n=g.n))
    value, nodes = minimum_hitting_set(cols)
    return value, lexicographically_smallest(cols, value), nodes


def _assert_same_answer(g):
    result = dem_number(g, max_n=g.n)
    value, witness, nodes = _without_partitions(g)
    assert (result.value, result.witness) == (value, witness)
    assert result.nodes_explored <= nodes


# prime factors, so that the layers found are those of the two factors
PRIME_SPECS = [
    "path:2", "path:3", "path:4", "cycle:3", "cycle:5",
    "complete:4", "book:2", "bipartite:1:3",
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIME_SPECS), st.sampled_from(PRIME_SPECS))
def test_partition_bound_at_the_root_is_the_papers_lower_bound(left, right):
    a, b = build(parse_expr(left)), build(parse_expr(right))
    g, _ = cartesian(a, b)
    cols = reduce_columns(monitor_matrix(g, max_n=g.n))
    expected = max(a.n * dem_number(b).value, b.n * dem_number(a).value)
    assert partition_bound(cols, factor_layers(g), inf) == expected


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=4), connected_graphs(max_n=4))
def test_partitions_change_no_answer_on_products(a, b):
    g, _ = cartesian(a, b)
    if a.n > 1 and b.n > 1:
        assert len(factor_layers(g)) >= 2
    _assert_same_answer(g)


@pytest.mark.parametrize(
    "spec, max_n",
    [
        ("cartesian(path:4|cycle:8)", 32),
        ("hypercube:5", 32),
        ("cartesian(cycle:4|cycle:6)", 24),
    ],
)
def test_witness_with_layers_is_the_partition_free_walks(spec, max_n):
    g = build(parse_expr(spec))
    result = dem_number(g, max_n=max_n)
    cols = monitor_matrix(g, max_n=max_n)
    assert result.witness == lexicographically_smallest(cols, result.value)
    columns = oracles.monitor_columns(g.n, list(g.edges))
    assert all(col & set(result.witness) for col in columns)


def test_partitions_change_no_answer_on_the_oracle_corpus():
    """Every graph criterion 15 checks the monitor matrix on."""
    for n in range(2, 6):
        for edges in oracles.connected_edge_subsets(n):
            _assert_same_answer(Graph(n, edges))
    for i in range(50):
        _assert_same_answer(random_connected(6 + i % 3, 1, 2, 8000 + i))


def _relabelled(g, order):
    """g with vertex v renamed ``order[v]``."""
    return Graph(g.n, [(order[u], order[v]) for u, v in g.edges])


@st.composite
def small_factors(draw, most):
    """A connected graph on 2 to ``most`` (at most 5) vertices, randconn,
    randtree, cycle or complete, under a random relabelling."""
    n = draw(st.integers(2, most))
    kind = draw(st.sampled_from(["randconn", "randtree", "cycle", "complete"]))
    seed = draw(st.integers(0, 10_000))
    g = {
        "randconn": lambda: random_connected(n, 1, 2, seed),
        "randtree": lambda: random_tree(n, seed),
        "cycle": lambda: cycle(n) if n > 2 else path(2),
        "complete": lambda: complete(n),
    }[kind]()
    return _relabelled(g, draw(st.permutations(range(n))))


@st.composite
def relabelled_products(draw):
    """The Cartesian product of two or three small factors, on at most 25
    vertices, itself relabelled so that its layers are not runs of ids."""
    g = draw(small_factors(5))
    for _ in range(draw(st.integers(1, 2))):
        if 2 * g.n > 25:
            break
        g = cartesian(g, draw(small_factors(min(5, 25 // g.n))))[0]
    return _relabelled(g, draw(st.permutations(range(g.n))))


PAW = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])  # a triangle and a pendant


class TestLayerLemma:
    """The value stage bounds the search by the blocks, and the walk gives
    each block a quota; both rest on every monitor column lying inside one
    factor layer."""

    @settings(max_examples=60, deadline=None)
    @given(relabelled_products())
    # the paw's pendant edge has a column holding that of the edge opposite
    # it, with another lowest and another highest vertex
    @example(_relabelled(cartesian(PAW, cycle(3))[0], range(11, -1, -1)))
    def test_columns_lie_in_one_layer_and_stages_match_the_oracles(self, g):
        edges = list(g.edges)
        layers = oracles.factor_layers(g.n, edges)
        assert len(layers) >= 2
        for col in oracles.monitor_columns(g.n, edges):
            mask = sum(1 << x for x in col)
            holding = [b for blocks in layers for b in blocks if not mask & ~b]
            assert len(holding) == 1, (col, layers)
        matrix = monitor_matrix(g, max_n=g.n)
        assert matrix == monitor_matrix_naive(g, max_n=g.n)

    @settings(max_examples=40, deadline=None)
    @given(small_factors(4), st.data())
    def test_tight_layers_hold_their_quota_in_every_minimum_set(self, a, data):
        # where a partition's block values sum to dem, every minimum set
        # holds val(B) vertices of each block B: the walk skips the vertices
        # of full blocks and lists the same sets
        b = data.draw(small_factors(min(5, 16 // a.n)))
        g, _ = cartesian(a, b)
        g = _relabelled(g, data.draw(st.permutations(range(g.n))))
        edges = list(g.edges)
        columns = oracles.monitor_columns(g.n, edges)
        dem = oracles.brute_dem(g.n, edges)
        minimum = [
            set(s)
            for s in combinations(range(g.n), dem)
            if all(col & set(s) for col in columns)
        ]
        for blocks in oracles.factor_layers(g.n, edges):
            values = {}
            for mask in blocks:
                block = {v for v in range(g.n) if mask >> v & 1}
                inside = [col for col in columns if col <= block]
                values[frozenset(block)] = next(
                    k
                    for k in range(len(block) + 1)
                    if any(
                        all(col & set(s) for col in inside)
                        for s in combinations(sorted(block), k)
                    )
                )
            if sum(values.values()) == dem:
                for s in minimum:
                    assert all(len(s & B) == k for B, k in values.items()), s
        result = dem_number(g, True, max_n=g.n)
        assert result.all_minimum_sets == tuple(tuple(sorted(s)) for s in minimum)

    @pytest.mark.parametrize(
        "spec", ["cycle:9", "bipartite:3:3", "bipartite:4:8", "join(path:4|cycle:5)"]
    )
    def test_prime_graphs_read_each_probe_in_the_whole_set(self, monkeypatch, spec):
        # the matrix reads every probe's distances in the whole vertex set,
        # so it asks for no factor layers
        g = build(parse_expr(spec))
        assert factor_layers(g) == ()
        layers = []
        monkeypatch.setattr(products, "factor_layers", layers.append)
        assert monitor_matrix(g) == monitor_matrix_naive(g)
        assert layers == []

    def test_cap_comes_before_the_layers_and_any_bfs(self, monkeypatch, bfs_sources):
        g = build(parse_expr("cartesian(cycle:5|cycle:6)"))
        layers = []
        monkeypatch.setattr(products, "factor_layers", layers.append)
        bfs_sources.clear()
        for stage in (monitor_matrix, dem_value, dem_number):
            with pytest.raises(CapExceededError):
                stage(g, max_n=29)
        assert layers == [] and bfs_sources == []
        monitor_matrix(g, max_n=30)  # the fixture sees this graph's sweep
        assert bfs_sources == ["all"]

    # (value, witness) at the parent of the shared memo; nodes_explored is 1
    MEMO_PINS = {
        "cartesian(cycle:5|cycle:6)": (
            12, (0, 1, 2, 3, 6, 10, 13, 16, 20, 23, 27, 29),
        ),
        "cartesian(complete:5|complete:6)": (
            25, (0, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 21,
                 22, 23, 24, 26, 27, 28, 29),
        ),
    }

    @pytest.mark.parametrize(
        "spec, enumerate_all",
        [
            ("cartesian(cycle:5|cycle:6)", False),
            ("cartesian(complete:5|complete:6)", False),
            ("cartesian(complete:5|complete:6)", True),
        ],
    )
    def test_the_walk_solves_no_block_the_value_search_solved(
        self, monkeypatch, spec, enumerate_all
    ):
        solved = {"search": set(), "walk": set()}
        phase = []

        def in_phase(name, stage):
            def wrapped(*args, **kwargs):
                phase.append(name)
                try:
                    return stage(*args, **kwargs)
                finally:
                    phase.pop()

            return wrapped

        bound = hitting.partition_bound

        memos = []

        def recording(cols, parts, stop):
            memos.append(parts.memo)
            before = set(parts.memo)
            value = bound(cols, parts, stop)
            solved[phase[-1]] |= set(parts.memo) - before
            return value

        monkeypatch.setattr(hitting, "partition_bound", recording)
        for name, stage in [
            ("search", "minimum_hitting_set"),
            ("walk", "lexicographically_smallest"),
            ("walk", "enumerate_minimum_sets"),
        ]:
            monkeypatch.setattr(hitting, stage, in_phase(name, getattr(hitting, stage)))
        g = build(parse_expr(spec))
        result = dem_number(g, enumerate_all, max_n=g.n)
        assert (result.value, result.witness) == self.MEMO_PINS[spec]
        assert result.nodes_explored == 1
        assert solved["search"] and solved["walk"]
        assert not solved["search"] & solved["walk"]
        assert all(memo is memos[0] for memo in memos)  # one for the whole call
