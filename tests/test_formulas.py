from collections import Counter
from itertools import combinations_with_replacement

import pytest

from demkit import (
    build,
    cartesian,
    check_lower_equality_condition,
    check_upper_equality_condition,
    cluster,
    dem_number,
    formulas,
    hitting,
    join,
    monitor_matrix,
    monitored_edges,
    monitored_pairs,
    parse_expr,
    predicted_dem,
    run_suite,
    verify_instance,
    vertex_cover_number,
)
from demkit.formulas import bounds_instances, formula_instances

from conftest import book, complete, cycle, path, random_connected


def predicted(text, mode="best"):
    return predicted_dem(parse_expr(text), mode=mode)


class TestRegistry:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("complete:5", 4),
            ("path:7", 1),
            ("path:1", 0),
            ("cycle:6", 2),
            ("bipartite:3:4", 3),
            ("book:4", 2),
            ("hypercube:3", 4),
            ("join(path:3|path:3)", 4),
            ("join(cycle:4|complete:3)", 5),
            ("corona(path:3|complete:2)", 3),
            ("corona(path:2|complete:3)", 4),
            ("cluster(cycle:4|path:2)", 2),
            ("cluster(complete:4|path:3)", 3),
            ("cartesian(path:3|path:7)", 7),
            ("cartesian(path:2|cycle:5)", 5),
            ("cartesian(path:3|cycle:4)", 6),
            ("cartesian(complete:3|complete:4)", 9),
            ("cartesian(cycle:3|cycle:5)", 10),
            ("cartesian(bipartite:1:3|cycle:4)", 8),
            ("join(complete:1|path:9)", 4),
        ],
    )
    def test_exact_values(self, text, value):
        pred = predicted(text)
        assert pred.kind == "exact" and pred.lower == value

    def test_book_product_rule_states_the_claimed_value(self):
        # the registry records the claimed sharp-upper value; the harness is
        # what shows the exact solver disagrees (see TestSharpness)
        pred = predicted("cartesian(book:2|book:2)")
        assert pred.kind == "exact" and pred.lower == 12

    def test_triangle_spelled_two_ways_agrees(self):
        assert predicted("cartesian(cycle:3|cycle:3)").lower == 6
        assert predicted("cartesian(complete:3|complete:3)").lower == 6

    def test_generic_cartesian_interval(self):
        pred = predicted("cartesian(cycle:4|book:2)", mode="bounds")
        # m=4 n=4 dem(C4)=2 dem(B2)=2: [max(8, 8), 8+8-4]
        assert (pred.kind, pred.lower, pred.upper) == ("interval", 8, 12)

    def test_cluster_interval_for_non_tree(self):
        pred = predicted("cluster(cycle:4|cycle:3)")
        assert (pred.kind, pred.lower, pred.upper) == ("interval", 3, 8)

    def test_apex_interval_when_radius_small(self):
        pred = predicted("join(complete:1|cycle:6)")
        assert (pred.kind, pred.lower, pred.upper) == ("interval", 3, 4)

    def test_fallback_cover_bound(self):
        pred = predicted("randconn:8:1/2:seed=3")
        g = build(parse_expr("randconn:8:1/2:seed=3"))
        assert pred.kind == "interval" and pred.lower == 2
        assert pred.upper == vertex_cover_number(g).value


class TestVerifyInstance:
    def test_book_passes(self):
        rec = verify_instance("book:4")
        assert rec.verdict == "pass" and rec.computed == 2

    def test_hypercube_passes(self):
        rec = verify_instance("hypercube:3")
        assert rec.verdict == "pass" and rec.computed == 4

    def test_cluster_tree_passes(self):
        rec = verify_instance("cluster(cycle:4|path:2)")
        assert rec.verdict == "pass" and rec.computed == 2

    def test_oversize_instances_are_skipped_not_failed(self):
        rec = verify_instance("cartesian(path:6|path:6)", max_n=24)
        assert rec.verdict == "skipped" and rec.computed is None

    def test_book_product_fails_honestly(self):
        # the claimed sharp upper bound is refuted by the exact solver
        rec = verify_instance("cartesian(book:2|book:2)")
        assert rec.verdict == "fail"
        assert rec.predicted.lower == 12 and rec.computed == 10

    @pytest.mark.parametrize("spec", ["cartesian(cycle:3|cycle:4)", "path:30"])
    def test_unknown_mode(self, spec):
        # an oversize instance is refused too, before it would be skipped
        for check in (predicted_dem, verify_instance):
            with pytest.raises(ValueError, match="'best', 'bounds'"):
                check(spec, mode="bogus")


class TestSharpness:
    def test_upper_equivalence_holds_without_uniqueness(self):
        g = path(2)
        rec = check_upper_equality_condition(g, g, name_g="path:2", name_h="path:2")
        assert rec.verdict == "pass" and rec.computed == 2

    def test_upper_counterexample_books(self):
        """Both factors have a unique minimum set, yet the product beats the
        claimed bound: layers may use larger, better-overlapping sets."""
        g = book(2)
        rec = check_upper_equality_condition(g, g, name_g="book:2", name_h="book:2")
        assert rec.verdict == "fail"
        assert "dem=10" in rec.detail and "bound=12" in rec.detail

    def test_lower_equivalence_on_cycle_and_path(self):
        rec = check_lower_equality_condition(
            cycle(4), path(4), name_g="cycle:4", name_h="path:4"
        )
        assert rec.verdict == "pass" and rec.computed == 8

    def test_lower_counterexample_triangles(self):
        """dem equals |H|*dem(G) although no two minimum sets of H are
        disjoint, refuting the necessity of the disjointness condition."""
        k3 = complete(3)
        rec = check_lower_equality_condition(
            k3, k3, name_g="complete:3", name_h="complete:3"
        )
        assert rec.verdict == "fail"
        assert "disjoint-sets-in-H=False" in rec.detail and "dem=6" in rec.detail


class TestSuites:
    def test_formula_suite_fails_exactly_on_book_products(self):
        records = run_suite("formulas")
        failing = {r.instance for r in records if r.verdict == "fail"}
        assert failing == {
            "cartesian(book:2|book:2)",
            "cartesian(book:2|book:3)",
            "cartesian(cycle:4|book:2)",
            "cartesian(path:3|book:2)",
        }
        assert not any(r.verdict == "skipped" for r in records)

    def test_bounds_suite_all_pass(self):
        records = run_suite("bounds")
        assert records and all(r.verdict == "pass" for r in records)

    def test_records_sorted_and_deterministic(self):
        a = run_suite("bounds")
        b = run_suite("bounds")
        assert [r.instance for r in a] == sorted(r.instance for r in a)
        assert [(r.instance, r.verdict, r.computed) for r in a] == [
            (r.instance, r.verdict, r.computed) for r in b
        ]

    def test_instance_lists_are_within_caps(self):
        from demkit.exprs import order_of

        for text in formula_instances() + bounds_instances(0):
            assert order_of(parse_expr(text)) <= 24

    def test_instance_lists_do_not_follow_the_solver_cap(self, monkeypatch):
        expected = (formula_instances(), bounds_instances(0))
        monkeypatch.setattr(formulas, "DEFAULT_MAX_N", 1024)
        assert (formula_instances(), bounds_instances(0)) == expected

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_all_suites_solve_each_graph_once(self, monkeypatch):
        solved = Counter()
        valued = Counter()
        covered = Counter()
        solve = formulas.dem_number
        value = formulas.dem_value
        cover = formulas.vertex_cover_number

        def counting(g, enumerate_all=False, **kwargs):
            solved[(g, enumerate_all)] += 1
            return solve(g, enumerate_all, **kwargs)

        def counting_value(g, **kwargs):
            valued[g] += 1
            return value(g, **kwargs)

        def counting_cover(g, **kwargs):
            covered[g] += 1
            return cover(g, **kwargs)

        monkeypatch.setattr(formulas, "dem_number", counting)
        monkeypatch.setattr(formulas, "dem_value", counting_value)
        monkeypatch.setattr(formulas, "vertex_cover_number", counting_cover)
        formulas._exact.cache_clear()
        formulas._value.cache_clear()
        formulas._cover_of.cache_clear()
        run_suite("all")
        # dem_number only enumerates; every value comes from dem_value
        assert solved and all(e for _, e in solved)
        repeated = {(g.n, g.edges, e): c for (g, e), c in solved.items() if c > 1}
        assert not repeated
        repeated = {(g.n, g.edges): c for g, c in valued.items() if c > 1}
        assert valued and not repeated
        repeated = {(g.n, g.edges): c for g, c in covered.items() if c > 1}
        assert covered and not repeated

    def test_suites_never_walk_for_a_witness(self, monkeypatch):
        def fields(records):
            return [r._replace(runtime=0.0) for r in records]

        expected = fields(run_suite("all"))

        def refuse(*args, **kwargs):
            raise AssertionError("no verify report prints a witness")

        monkeypatch.setattr(hitting, "lexicographically_smallest", refuse)
        formulas._exact.cache_clear()
        formulas._value.cache_clear()
        assert fields(run_suite("all")) == expected


class TestApexBound:
    def test_long_paths_attain_the_cover_number(self):
        for n in (9, 10, 11, 12):
            g = path(n)
            assert g.radius() >= 4
            apex, _ = join(complete(1), g)
            assert dem_number(apex).value == vertex_cover_number(g).value

    def test_small_graphs_within_one_of_cover(self):
        for seed in range(10):
            g = random_connected(4 + seed % 5, 1, 2, 7000 + seed)
            apex, _ = join(complete(1), g)
            c = vertex_cover_number(g).value
            assert c <= dem_number(apex).value <= c + 1


class TestClusterBounds:
    def test_tree_copies_leave_dem_unchanged(self):
        for g in (cycle(4), complete(4)):
            for h in (path(2), path(3)):
                product, _ = cluster(g, h)
                assert dem_number(product).value == dem_number(g).value

    def test_non_tree_copies_force_an_increase(self):
        for g in (cycle(4), complete(4)):
            product, _ = cluster(g, cycle(3))
            d = dem_number(g).value
            assert d + 1 <= dem_number(product).value <= g.n * dem_number(cycle(3)).value


class TestProductSandwich:
    def test_bounds_hold_on_the_factor_corpus(self):
        factors = {
            "path:2": path(2), "path:3": path(3), "path:4": path(4),
            "cycle:3": cycle(3), "cycle:4": cycle(4), "cycle:5": cycle(5),
            "complete:3": complete(3), "book:2": book(2),
        }
        for (na, a), (nb, b) in combinations_with_replacement(
            sorted(factors.items()), 2
        ):
            if a.n * b.n > 24:
                continue
            product, _ = cartesian(a, b)
            d = dem_number(product).value
            d1, d2 = dem_number(a).value, dem_number(b).value
            assert max(a.n * d2, b.n * d1) <= d
            assert d <= a.n * d2 + b.n * d1 - d1 * d2


def layer_locality_counterexamples(g, h):
    """Violations of layer locality in the Cartesian product.

    A layer edge must be invisible to every probe outside its layer, and for
    probes inside, the detecting pairs must be exactly the factor-copy pairs
    mapped through the layer bijection.
    """
    product, pm = cartesian(g, h)
    pmat = monitor_matrix(product, max_n=product.n)
    bad = []
    for eid, (a, b) in enumerate(product.edges):
        (ia, ja), (ib, jb) = pm.pair(a), pm.pair(b)
        if ia == ib:  # an H-layer edge of copy ia
            layer = set(pm.h_layer(ia))
            factor, factor_eid = h, h.edge_id(ja, jb)
            inside = {pm.vertex_at(ia, j): j for j in range(h.n)}
        else:  # a G-layer edge of layer ja
            layer = set(pm.g_layer(ja))
            factor, factor_eid = g, g.edge_id(ia, ib)
            inside = {pm.vertex_at(i, ja): i for i in range(g.n)}
        for x in range(product.n):
            if x not in layer:
                if (pmat[eid] >> x) & 1:
                    bad.append(("outside-probe", eid, x))
        for x, fx in inside.items():
            got = monitored_pairs(product, {x}, eid)
            back = {v: p for p, v in inside.items()}
            expected = {
                (x, back[fy])
                for _, fy in monitored_pairs(factor, {fx}, factor_eid)
            }
            if got != expected:
                bad.append(("pair-mismatch", eid, x))
    # the per-probe edge sets must decompose into the two factor rows
    for x in range(product.n):
        i, j = pm.pair(x)
        expected = set()
        for fe in monitored_edges(h, j):
            u, v = h.edges[fe]
            expected.add(product.edge_id(pm.vertex_at(i, u), pm.vertex_at(i, v)))
        for fe in monitored_edges(g, i):
            u, v = g.edges[fe]
            expected.add(product.edge_id(pm.vertex_at(u, j), pm.vertex_at(v, j)))
        if {eid for eid, col in enumerate(pmat) if col >> x & 1} != expected:
            bad.append(("row-mismatch", x))
    return bad


class TestLayerLocality:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("path:3", "path:4"),
            ("path:2", "cycle:5"),
            ("cycle:4", "cycle:4"),
            ("complete:3", "book:2"),
            ("book:2", "bipartite:2:3"),
            ("complete:4", "path:5"),
        ],
    )
    def test_no_counterexamples_on_small_products(self, a, b):
        g, h = build(parse_expr(a)), build(parse_expr(b))
        assert layer_locality_counterexamples(g, h) == []
