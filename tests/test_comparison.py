import pytest

import oracles
from demkit import (
    CapExceededError,
    Graph,
    GraphError,
    build,
    cartesian,
    compare_graph,
    dem_number,
    edge_metric_dimension,
    hitting,
    is_dem_set,
    is_vertex_cover,
    metric_dimension,
    parse_expr,
    strong_metric_dimension,
    vertex_cover_number,
)
from demkit.comparison import (
    is_edge_metric_generator,
    is_metric_generator,
    is_strong_resolving_set,
)

from conftest import complete, cycle, path, random_connected


def grid(m, n):
    return cartesian(path(m), path(n))[0]


def torus(m, n):
    return cartesian(cycle(m), cycle(n))[0]


def rook(m, n):
    return cartesian(complete(m), complete(n))[0]


class TestMetricDimension:
    def test_path(self):
        assert metric_dimension(path(5))[0] == 1

    def test_grid(self):
        assert metric_dimension(grid(3, 3))[0] == 2

    def test_complete(self):
        assert metric_dimension(complete(4))[0] == 3


class TestEdgeMetricDimension:
    def test_path(self):
        assert edge_metric_dimension(path(4))[0] == 1

    def test_grid(self):
        assert edge_metric_dimension(grid(3, 4))[0] == 2

    def test_torus_multiple_of_four(self):
        assert edge_metric_dimension(torus(4, 4), max_n=16)[0] == 3

    def test_large_torus_multiple_of_four(self):
        assert edge_metric_dimension(torus(8, 8), max_n=64)[0] == 3


class TestStrongMetricDimension:
    def test_path(self):
        assert strong_metric_dimension(path(6))[0] == 1

    def test_rook_3_3(self):
        assert strong_metric_dimension(rook(3, 3))[0] == 6

    def test_complete(self):
        assert strong_metric_dimension(complete(4))[0] == 3


class TestWitnesses:
    def test_witnesses_satisfy_their_predicates(self):
        for g in (grid(3, 3), cycle(6), complete(4)):
            _, w = metric_dimension(g)
            assert is_metric_generator(g, w)
            _, w = edge_metric_dimension(g)
            assert is_edge_metric_generator(g, w)
            _, w = strong_metric_dimension(g)
            assert is_strong_resolving_set(g, w)

    def test_witnesses_are_minimal(self):
        solvers = [
            (metric_dimension, is_metric_generator),
            (edge_metric_dimension, is_edge_metric_generator),
            (strong_metric_dimension, is_strong_resolving_set),
        ]
        for g in (grid(2, 3), cycle(5), complete(4)):
            for solve, predicate in solvers:
                _, witness = solve(g)
                for drop in witness:
                    rest = [v for v in witness if v != drop]
                    assert not predicate(g, rest)


    @pytest.mark.parametrize(
        "check",
        [
            is_metric_generator,
            is_edge_metric_generator,
            is_strong_resolving_set,
            is_dem_set,
            is_vertex_cover,
        ],
    )
    @pytest.mark.parametrize("vertex", [-1, 4])
    def test_checkers_refuse_vertices_that_do_not_exist(self, check, vertex):
        # -1 would index another vertex, 4 = n past the end of path:4
        with pytest.raises(GraphError):
            check(path(4), [vertex])


class TestCrossChecks:
    def test_dim_at_most_strong_dim(self):
        for g in (grid(3, 3), torus(3, 4), cycle(7), complete(5), path(8)):
            assert metric_dimension(g, max_n=16)[0] <= strong_metric_dimension(g, max_n=16)[0]

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 4)])
    def test_rook_graphs_match_both_formulas(self, m, n):
        g = rook(m, n)
        assert dem_number(g).value == m * n - min(m, n)
        assert strong_metric_dimension(g, max_n=16)[0] == min(m * (n - 1), n * (m - 1))

    def test_torus_metric_dimension_membership(self):
        # reported as one of two values, without the case split
        assert metric_dimension(torus(4, 4), max_n=16)[0] in (3, 4)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            metric_dimension(torus(5, 5))


DIMENSIONS = (
    (metric_dimension, oracles.brute_metric_dimension),
    (edge_metric_dimension, oracles.brute_edge_metric_dimension),
    (strong_metric_dimension, oracles.brute_strong_metric_dimension),
)


class TestAgainstOracles:
    """Value and witness equal the first subset of the plain search by
    increasing size in combinations order (tests/oracles.py)."""

    def test_every_connected_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            for edges in oracles.connected_edge_subsets(n):
                g = Graph(n, edges)
                for solve, brute in DIMENSIONS:
                    assert solve(g) == brute(n, edges), (solve.__name__, n, edges)

    def test_seeded_random_graphs_up_to_eight_vertices(self):
        for seed in range(60):
            g = random_connected(6 + seed % 3, 1 + seed % 3, 4, seed)
            for solve, brute in DIMENSIONS:
                assert solve(g) == brute(g.n, list(g.edges)), (solve.__name__, seed)


def test_compare_report():
    g = grid(3, 3)
    report = compare_graph(g, "grid-3x3")
    assert (report.name, report.n, report.m) == ("grid-3x3", 9, 12)
    assert (report.dem, report.dim, report.edim) == (3, 2, 2)
    assert is_metric_generator(g, report.dim_witness)
    assert is_edge_metric_generator(g, report.edim_witness)
    assert is_strong_resolving_set(g, report.dim_s_witness)


# (value, nodes) of the value search of the metric, edge metric and strong
# metric dimensions and of vertex cover: the comparison's pair columns are
# the widest any route branches on, and the witness drops the node count
PINNED_SEARCHES = {
    "randconn:24:1/2:seed=3": ((5, 1079), (12, 1038), (18, 38), (18, 40)),
    "hypercube:4": ((4, 273), (3, 47), (8, 8), (8, 1)),
}


@pytest.mark.parametrize("spec", list(PINNED_SEARCHES))
def test_dimension_searches_are_pinned(spec, monkeypatch):
    searches = []
    original = hitting.minimum_hitting_set

    def recording(*args, **kwargs):
        searches.append(original(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(hitting, "minimum_hitting_set", recording)
    g = build(parse_expr(spec))
    for solve in (
        metric_dimension,
        edge_metric_dimension,
        strong_metric_dimension,
        vertex_cover_number,
    ):
        solve(g, max_n=g.n)
    assert tuple(searches) == PINNED_SEARCHES[spec]
