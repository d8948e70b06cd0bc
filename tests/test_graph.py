import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    INFINITE,
    dem_number,
    format_edge_list,
    parse_edge_list,
)

import oracles
from conftest import complete, cycle, path, random_connected, bipartite


class TestParseEdgeList:
    def test_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)
        assert g.edges == ((0, 1), (1, 2))

    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert (g.n, g.m) == (3, 3)

    def test_comments_blanks_and_duplicates(self):
        g = parse_edge_list("# a triangle\n0 1\n\n1 2  # trailing note\n2 0\n1 0\n")
        assert (g.n, g.m) == (3, 3)

    def test_disconnected_reports_witnesses(self):
        with pytest.raises(DisconnectedGraphError) as err:
            parse_edge_list("0 1\n2 3")
        u, v = err.value.witnesses
        assert {u, v} <= {0, 1, 2, 3}
        # one witness on each side of the split
        assert (u in (0, 1)) != (v in (0, 1))

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 0")

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 x")

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("# nothing\n")

    def test_round_trip(self):
        for g in (path(5), cycle(6), complete(4), bipartite(2, 3)):
            assert parse_edge_list(format_edge_list(g)) == g


class TestConstruction:
    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_canonical_edge_ids(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.edge_id(2, 1) == 1

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.n == 1 and g.m == 0


class TestDistances:
    def test_all_pairs_path(self):
        assert path(3).distance_matrix[0][2] == 2

    def test_all_pairs_cycle(self):
        d = cycle(5).distance_matrix
        assert d[0][2] == 2 and d[0][3] == 2

    def test_all_pairs_complete(self):
        d = complete(4).distance_matrix
        assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_bridge_removal_is_infinite(self):
        g = path(3)
        row = g.distances_from(0, removed=g.edge_id(1, 2))
        assert row[2] == INFINITE and INFINITE > 10 and INFINITE != 2

    def test_cycle_detour(self):
        # frozen from the brute-force BFS oracle on the 4-cycle minus (1, 2)
        g = cycle(4)
        assert oracles.bfs_row(4, [e for e in g.edges], 0, banned=(1, 2))[2] == 2
        assert g.distances_from(0, removed=g.edge_id(1, 2))[2] == 2

    def test_triangle_detour(self):
        g = complete(3)
        assert g.distances_from(0, removed=g.edge_id(0, 1))[1] == 2

    def test_matches_brute_oracle(self):
        for g in (path(6), cycle(7), bipartite(2, 4), random_connected(8, 1, 2, 5)):
            assert [list(r) for r in g.distance_matrix] == oracles.distance_matrix(
                g.n, list(g.edges)
            )


class TestRadiusAndTree:
    def test_radius(self):
        assert path(9).radius() == 4
        assert cycle(6).radius() == 3
        assert complete(5).radius() == 1

    def test_is_tree(self):
        assert path(6).is_tree()
        assert not cycle(4).is_tree()
        assert bipartite(1, 4).is_tree()  # the star on five vertices


class TestBaseGraph:
    def test_monitoring_number_invariant(self):
        # pendant stripping never changes the monitoring number (non-trees),
        # with the stripper of the package-free oracles; only graphs that
        # have a pendant vertex to strip count towards the ten
        found = 0
        seed = 0
        while found < 10:
            seed += 1
            g = random_connected(4 + seed % 5, 1, 2, 900 + seed)
            base = oracles.base_graph(g.n, g.edges)
            if base is None or (base[0], len(base[1])) == (g.n, g.m):
                continue  # a tree, or nothing to strip
            found += 1
            assert dem_number(Graph(*base)).value == dem_number(g).value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bridge_classification(seed):
    """Removing an edge leaves exactly the pairs it separates at INFINITE."""
    g = random_connected(7, 1, 3, seed)
    for eid in range(g.m):
        cut = [g.distances_from(v, removed=eid) for v in range(g.n)]
        reach = oracles.bfs_row(
            g.n, list(g.edges), 0, banned=g.edges[eid]
        )
        # vertices still reachable from 0 form one side; INFINITE must appear
        # exactly between the two sides (empty side = not a bridge)
        side = {v for v in range(g.n) if reach[v] != oracles.INF}
        for u in range(g.n):
            for v in range(g.n):
                expected_cut = (u in side) != (v in side)
                assert (cut[u][v] == INFINITE) == expected_cut


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_all_pairs_agrees_with_single_source(seed):
    g = random_connected(8, 1, 2, seed)
    for v in range(g.n):
        assert list(g.distance_matrix[v]) == g.distances_from(v)
