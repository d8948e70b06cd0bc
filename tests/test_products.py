from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import Graph, GraphError, build, cartesian, cluster, corona, join, parse_expr
from demkit import products
from demkit.products import factor_layers

import oracles
from conftest import book, complete, cycle, path, random_connected, random_tree


def induces(g, vertices, h):
    """True iff ``vertices`` of g, in the given order, induce exactly h."""
    return oracles.induced(g.edges, vertices) == (h.n, list(h.edges))


class TestJoin:
    def test_two_edges_make_k4(self):
        g, _ = join(path(2), path(2))
        assert g == complete(4)

    def test_wheel(self):
        g, _ = join(complete(1), cycle(4))
        assert (g.n, g.m) == (5, 8)

    def test_edge_count(self):
        g, _ = join(path(3), path(3))
        assert (g.n, g.m) == (6, 13)

    def test_sides(self):
        g, pm = join(path(3), cycle(3))
        assert pm.g_vertices() == (0, 1, 2)
        assert pm.h_copy(0) == (3, 4, 5)
        assert induces(g, pm.h_copy(0), cycle(3))

    def test_diameter_at_most_two(self):
        for a, b in [(path(4), cycle(5)), (path(2), complete(3))]:
            g, _ = join(a, b)
            d = g.distance_matrix
            assert max(max(row) for row in d) <= 2


class TestCorona:
    def test_pendants_make_a_path(self):
        g, _ = corona(path(2), complete(1))
        assert (g.n, g.m) == (4, 3)
        assert g.is_tree()
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_edge_count(self):
        g, _ = corona(path(3), path(2))
        assert (g.n, g.m) == (9, 11)
        g, _ = corona(path(2), path(2))
        assert (g.n, g.m) == (6, 7)

    def test_copies(self):
        g, pm = corona(path(3), complete(3))
        assert pm.g_vertices() == (0, 1, 2)
        for i in range(3):
            copy = pm.h_copy(i)
            assert induces(g, copy, complete(3))
            # the i-th spine vertex is joined to all of copy i
            assert all(g.has_edge(i, w) for w in copy)


class TestCluster:
    def test_cycle_with_pendants(self):
        g, _ = cluster(cycle(4), path(2))
        assert (g.n, g.m) == (8, 8)

    def test_two_triangles_sharing_nothing(self):
        g, _ = cluster(path(2), cycle(3))
        assert (g.n, g.m) == (6, 7)

    def test_spider(self):
        g, _ = cluster(path(2), path(3), root=1)
        assert (g.n, g.m) == (6, 5)
        assert g.is_tree()

    def test_roots_induce_the_base(self):
        g, pm = cluster(cycle(4), path(3), root=1)
        assert induces(g, pm.g_vertices(), cycle(4))
        for i in range(4):
            assert induces(g, pm.h_copy(i), path(3))

    def test_bad_root(self):
        with pytest.raises(GraphError):
            cluster(cycle(3), path(2), root=5)


class TestCartesian:
    def test_square(self):
        g, _ = cartesian(path(2), path(2))
        # the 4-cycle, up to relabeling
        assert (g.n, g.m) == (4, 4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_grid(self):
        g, _ = cartesian(path(2), path(3))
        assert (g.n, g.m) == (6, 7)

    def test_prism(self):
        g, _ = cartesian(complete(2), complete(3))
        assert (g.n, g.m) == (6, 9)

    def test_layers_are_factor_copies(self):
        g, pm = cartesian(cycle(4), path(3))
        for j in range(3):
            assert induces(g, pm.g_layer(j), cycle(4))
        for i in range(4):
            assert induces(g, pm.h_layer(i), path(3))

    def test_vertex_map_round_trip(self):
        _, pm = cartesian(path(3), cycle(3))
        for i in range(3):
            for j in range(3):
                pid = pm.vertex_at(i, j)
                assert pm.pair(pid) == (i, j)
                assert pm.vertex("GH", i, j) == pid

    def test_distance_law_exhaustive(self):
        """Product distances are the sums of factor distances, for every
        factor pair of order <= 6 from paths, cycles, completes, and books."""
        factors = (
            [path(n) for n in range(2, 7)]
            + [cycle(n) for n in range(3, 7)]
            + [complete(n) for n in range(2, 7)]
            + [book(q) for q in range(1, 5)]
        )
        for g, h in combinations_with_replacement(factors, 2):
            p, pm = cartesian(g, h)
            d = p.distance_matrix
            dg, dh = g.distance_matrix, h.distance_matrix
            for a in range(p.n):
                i, j = pm.pair(a)
                for b in range(p.n):
                    k, l = pm.pair(b)
                    assert d[a][b] == dg[i][k] + dh[j][l]


def test_edge_count_formulas_on_random_factors():
    for seed in range(20):
        g = random_connected(2 + seed % 5, 2, 3, 300 + seed)
        h = random_connected(2 + (seed * 3) % 5, 2, 3, 600 + seed)
        m, n = g.n, h.n
        assert join(g, h)[0].m == g.m + h.m + m * n
        assert corona(g, h)[0].m == m * (h.m + n) + g.m
        assert cluster(g, h)[0].m == g.m + m * h.m
        assert cartesian(g, h)[0].m == m * h.m + n * g.m


def _masks(layers):
    return frozenset(sum(1 << v for v in layer) for layer in layers)


def _product_layers(a, b):
    """The G-layers and the H-layers of a x b, each as a set of masks."""
    g, pm = cartesian(a, b)
    return g, {
        _masks(pm.g_layer(j) for j in range(b.n)),
        _masks(pm.h_layer(i) for i in range(a.n)),
    }


def _petersen():
    return Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


# prime factors: a Cartesian product of them has exactly two factor classes
PRIME_FACTORS = [
    path(2), path(3), path(4), cycle(3), cycle(5), cycle(6),
    complete(4), book(2), book(3), build(parse_expr("bipartite:3:3")),
]


class TestFactorLayers:
    def test_layers_of_built_products(self):
        for a, b in combinations_with_replacement(PRIME_FACTORS, 2):
            g, expected = _product_layers(a, b)
            parts = factor_layers(g)
            assert {frozenset(blocks) for blocks in parts} == expected, (a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 7), st.integers(0, 10_000),
        st.sampled_from(["cycle", "complete", "tree"]), st.integers(3, 6),
    )
    def test_layers_of_random_prime_factors(self, t, seed, kind, k):
        tree = path(2) if t == 2 else random_tree(t, seed)
        other = {"cycle": cycle(k + (k == 4)), "complete": complete(k)}.get(
            kind, random_tree(k, seed + 1)
        )
        for a, b in ((tree, other), (other, tree)):
            g, expected = _product_layers(a, b)
            assert {frozenset(blocks) for blocks in factor_layers(g)} == expected

    def test_composite_factors_split_into_their_primes(self):
        # C4 = K2 x K2 and Q4 = K2^4: one class per prime factor
        assert len(factor_layers(cartesian(cycle(4), cycle(6))[0])) == 3
        assert len(factor_layers(build(parse_expr("hypercube:4")))) == 4

    def test_prime_graphs_yield_no_partition(self):
        graphs = [
            build(parse_expr(spec))
            for spec in (
                "cycle:24", "path:24", "book:22", "join(path:6|cycle:8)",
                "corona(path:4|complete:4)", "bipartite:3:3",
            )
        ]
        graphs.append(_petersen())
        graphs += [random_connected(24, 1, 2, seed) for seed in range(3)]
        for g in graphs:
            assert factor_layers(g) == (), g

    @pytest.mark.parametrize("spec", ["bipartite:4:8", "bipartite:6:6"])
    def test_prime_graphs_stop_once_one_class_is_left(self, monkeypatch, spec):
        g = build(parse_expr(spec))
        dist = g.distance_matrix
        related = sum(  # Theta pairs, two _find calls each in a full pass
            dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]
            for i, (x, y) in enumerate(g.edges)
            for u, v in g.edges[i + 1:]
        )
        calls = []
        find = products._find

        def counting(parent, x):
            calls.append(x)
            return find(parent, x)

        monkeypatch.setattr(products, "_find", counting)
        assert factor_layers(g) == ()
        assert 0 < len(calls) < 2 * related

    def test_square_test_comes_before_any_distance(self, monkeypatch):
        calls = []
        bfs = Graph.distances_from

        def counting(self, source, removed=None):
            calls.append(source)
            return bfs(self, source, removed)

        monkeypatch.setattr(Graph, "distances_from", counting)
        for spec in ("cycle:24", "book:22", "join(path:6|cycle:8)", "complete:6"):
            g = build(parse_expr(spec))  # fresh: no cached distances
            calls.clear()
            assert factor_layers(g) == ()
            assert calls == [], spec
        # K3,3 has every edge on a chordless square, so its classes are computed
        factor_layers(build(parse_expr("bipartite:3:3")))
        assert calls
