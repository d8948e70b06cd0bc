import pytest

from demkit import ExpressionError, build, canonical, parse_expr
from demkit.exprs import ProductSpec, order_of
from demkit.families import FamilySpec

from conftest import book, cycle


class TestParsing:
    def test_family(self):
        assert parse_expr("book:4") == FamilySpec("book", (4,))
        assert parse_expr("bipartite:2:3") == FamilySpec("complete_bipartite", (2, 3))
        assert parse_expr("randconn:8:1/3:seed=42") == FamilySpec(
            "random_connected", (8, 1, 3), 42
        )

    def test_long_names_accepted(self):
        assert parse_expr("complete_bipartite:2:3") == parse_expr("bipartite:2:3")
        assert parse_expr("random_tree:6:seed=1") == parse_expr("randtree:6:seed=1")

    def test_product(self):
        expr = parse_expr("cartesian(path:3,cycle:4)")
        assert expr == ProductSpec(
            "cartesian", FamilySpec("path", (3,)), FamilySpec("cycle", (4,))
        )

    def test_pipe_separator(self):
        assert parse_expr("join(path:3|path:3)") == parse_expr("join(path:3,path:3)")

    def test_cluster_root(self):
        expr = parse_expr("cluster(cycle:4,path:2,root=1)")
        assert expr.root == 1
        assert parse_expr("cluster(cycle:4,path:2)").root == 0

    def test_nested(self):
        expr = parse_expr("join(cartesian(path:2,path:2),complete:1)")
        assert isinstance(expr.left, ProductSpec)
        assert build(expr).n == 5

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "frobnicate:3",
            "path:x",
            "join(path:3)",
            "join(path:3,path:3,path:3)",
            "cluster(cycle:4,path:2,root=)",
            "cluster(cycle:4,path:2,rootx=1)",
            "cartesian(path:3,cycle:4",
            "randconn:8:1/3/4:seed=1",
            "randconn:8:1/2:seed=1:seed=2",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ExpressionError):
            parse_expr(text)


class TestCanonical:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("book:4", "book:4"),
            ("cartesian(path:3,cycle:4)", "cartesian(path:3|cycle:4)"),
            ("cluster(cycle:4,path:2)", "cluster(cycle:4|path:2|root=0)"),
            ("randconn:8:1/3:seed=42", "randconn:8:1/3:seed=42"),
            (
                "join(corona(path:2,path:2),book:2)",
                "join(corona(path:2|path:2)|book:2)",
            ),
        ],
    )
    def test_round_trip(self, text, expected):
        expr = parse_expr(text)
        assert canonical(expr) == str(expr) == expected
        assert parse_expr(canonical(expr)) == expr


class TestBuildAndOrder:
    @pytest.mark.parametrize(
        "text",
        [
            "path:6",
            "hypercube:3",
            "join(path:3|cycle:3)",
            "corona(path:3|complete:2)",
            "cluster(cycle:4|path:3|root=1)",
            "cartesian(path:2|book:2)",
            "cartesian(join(path:2|path:2)|path:2)",
        ],
    )
    def test_order_matches_built_graph(self, text):
        expr = parse_expr(text)
        assert order_of(expr) == build(expr).n

    def test_build_book(self):
        assert build(parse_expr("book:2")) == book(2)
        assert build(parse_expr("cycle:5")) == cycle(5)
