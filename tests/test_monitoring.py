import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import (
    CapExceededError,
    EnumerationCapExceededError,
    Graph,
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
from demkit.hitting import (
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
        mm = monitor_matrix(path(3))
        assert all(row == 0b11 for row in mm.rows)

    def test_cycle_rows_are_incident_edges(self):
        g = cycle(4)
        mm = monitor_matrix(g)
        for x in range(4):
            incident = {e for e, (u, v) in enumerate(g.edges) if x in (u, v)}
            assert set(mm.monitored(x)) == incident

    def test_book_hub_rows_cover_all_columns(self):
        g = book(2)
        mm = monitor_matrix(g)
        assert mm.rows[0] | mm.rows[1] == (1 << g.m) - 1

    def test_endpoints_always_monitor_their_edge(self):
        for g in (cycle(6), book(3), bipartite(2, 4), complete(5)):
            mm = monitor_matrix(g)
            for eid, (u, v) in enumerate(g.edges):
                assert u in mm.monitors(eid) and v in mm.monitors(eid)

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
            assert [set(mm.monitors(e)) for e in range(g.m)] == cols

    def test_one_bfs_per_probe(self, monkeypatch):
        calls = []
        bfs = Graph.distances_from

        def counting(self, source, removed=None):
            calls.append(source)
            return bfs(self, source, removed)

        monkeypatch.setattr(Graph, "distances_from", counting)
        for g in (path(6), cycle(7), book(3), random_connected(12, 1, 2, 8)):
            calls.clear()
            monitor_matrix(g)
            assert sorted(calls) == list(range(g.n))

    @pytest.mark.parametrize("spec", ["path:24", "cycle:24", "book:22"])
    def test_no_factorisation_distances_on_prime_graphs(self, monkeypatch, spec):
        # each has an edge on no chordless square, so dem_number asks for
        # the factor layers without computing one more distance row
        g = build(parse_expr(spec))
        calls = []
        bfs = Graph.distances_from

        def counting(self, source, removed=None):
            calls.append(source)
            return bfs(self, source, removed)

        monkeypatch.setattr(Graph, "distances_from", counting)
        dem_number(g)
        assert len(calls) == g.n

    @pytest.mark.parametrize(
        "spec",
        ["cartesian(cycle:4|cycle:6)", "hypercube:4", "cartesian(complete:4|complete:6)"],
    )
    def test_one_set_of_distance_rows_on_products(self, monkeypatch, spec):
        # each passes the square test, so factor_layers reads distances too:
        # the rows monitor_matrix has already computed
        assert factor_layers(build(parse_expr(spec)))
        g = build(parse_expr(spec))
        calls = []
        bfs = Graph.distances_from

        def counting(self, source, removed=None):
            calls.append(source)
            return bfs(self, source, removed)

        monkeypatch.setattr(Graph, "distances_from", counting)
        dem_number(g)
        assert sorted(calls) == list(range(g.n))

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
        cols = reduce_columns(matrix.cols)
        upper = len(greedy_dem(g, matrix))
        assert upper > value  # the greedy set alone would leave a gap
        assert minimum_hitting_set(
            cols, upper=upper, parts=factor_layers(g)
        ) == (value, 1)

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
    }

    @pytest.mark.parametrize("spec", list(GOLDEN_ENUMERATIONS))
    def test_enumeration_is_pinned(self, spec):
        sets = dem_number(build(parse_expr(spec)), enumerate_all=True).all_minimum_sets
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
        col = mm.cols[eid]
        assert (col >> u) & 1 and (col >> v) & 1


@st.composite
def connected_graphs(draw, max_n=10):
    """A connected graph on at most ``max_n`` vertices: a random spanning
    tree, relabeled, plus no, a few, or about half of the other pairs."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    tree = {
        tuple(sorted((label[draw(st.integers(0, v - 1))], label[v])))
        for v in range(1, n)
    }
    others = [p for p in combinations(range(n), 2) if p not in tree]
    kind = draw(st.sampled_from(["tree", "sparse", "dense"]))
    if kind == "tree" or not others:
        extra = []
    elif kind == "sparse":
        extra = draw(st.lists(st.sampled_from(others), max_size=n, unique=True))
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
        extra = [p for p, k in zip(others, keep) if k]
    return Graph(n, sorted(tree) + extra)


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_parent_count_rows_match_the_oracles(g):
    mm = monitor_matrix(g)
    assert mm == monitor_matrix_naive(g)
    assert [set(mm.monitors(e)) for e in range(g.m)] == oracles.monitor_columns(
        g.n, list(g.edges)
    )
    for x in range(g.n):
        assert monitored_edges(g, x) == monitored_edges_naive(g, x)


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
    cols = reduce_columns(monitor_matrix(g, max_n=g.n).cols)
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
    cols = reduce_columns(monitor_matrix(g, max_n=g.n).cols)
    expected = max(a.n * dem_number(b).value, b.n * dem_number(a).value)
    assert partition_bound(cols, factor_layers(g)) == expected


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
    cols = monitor_matrix(g, max_n=max_n).cols
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
