import pytest

from demkit import FamilySpec, GenerationError, generate
from demkit.exprs import order_of
from demkit.families import family_order

from conftest import book, bipartite, path, random_connected, random_tree


class TestBook:
    def test_two_pages(self):
        g = book(2)
        assert (g.n, g.m) == (4, 5)
        # q triangles sharing the common edge (0, 1)
        assert g.has_edge(0, 1)
        for p in (2, 3):
            assert g.neighbor_masks[p] == 0b11

    @pytest.mark.parametrize("q", range(1, 7))
    def test_counts(self, q):
        g = book(q)
        assert (g.n, g.m) == (q + 2, 2 * q + 1)


class TestHypercube:
    def test_q3(self):
        g = generate(FamilySpec("hypercube", (3,)))
        assert (g.n, g.m) == (8, 12)
        assert all(g.degree(v) == 3 for v in range(8))
        assert all(
            (u ^ v).bit_count() == 1 for u, v in g.edges
        )

    def test_q1_is_an_edge(self):
        assert generate(FamilySpec("hypercube", (1,))) == path(2)


class TestBipartite:
    def test_k23(self):
        g = bipartite(2, 3)
        assert (g.n, g.m) == (5, 6)
        left, right = {0, 1}, {2, 3, 4}
        assert all((u in left) != (v in left) for u, v in g.edges)
        assert right == set(range(g.n)) - left


class TestRandomKinds:
    def test_random_tree_is_tree(self):
        for seed in range(8):
            assert random_tree(2 + seed, seed).is_tree()

    def test_deterministic_given_seed(self):
        spec = FamilySpec("random_connected", (8, 1, 2), seed=42)
        assert generate(spec) == generate(spec)
        assert random_tree(9, 7) == random_tree(9, 7)

    def test_seed_changes_output(self):
        assert any(
            random_tree(9, 1) != random_tree(9, s) for s in range(2, 12)
        )

    def test_connected(self):
        for seed in range(6):
            random_connected(7, 1, 3, seed)  # construction validates

    def test_zero_probability_exhausts_retries(self):
        with pytest.raises(GenerationError):
            random_connected(4, 0, 1, 3)

    def test_full_probability_is_complete(self):
        g = random_connected(5, 1, 1, 0)
        assert g.m == 10

    def test_seed_required(self):
        for use in (generate, family_order):
            with pytest.raises(GenerationError):
                use(FamilySpec("random_tree", (5,)))


# specs whose shape (kind, parameter count) is wrong, so they have no order
MALFORMED = (
    FamilySpec("path", (3, 4)),
    FamilySpec("nonsense", (3,)),
    FamilySpec("path", ()),
    FamilySpec("path", (3,), 7),  # a seed on a deterministic kind
)


class TestValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("cycle", (2,)),
            FamilySpec("path", (0,)),
            FamilySpec("book", (0,)),
            FamilySpec("complete_bipartite", (0, 3)),
            FamilySpec("hypercube", (0,)),
            FamilySpec("random_connected", (5, 3, 2), seed=1),
            FamilySpec("path", (3, 4)),
            FamilySpec("nonsense", (3,)),
            FamilySpec("path", ()),
            FamilySpec("hypercube", (-1,)),
            FamilySpec("path", (3,), 7),
        ],
    )
    def test_bad_parameters(self, spec):
        with pytest.raises(GenerationError):
            generate(spec)
        if spec in MALFORMED:
            for order in (family_order, order_of):
                with pytest.raises(GenerationError):
                    order(spec)
        else:
            family_order(spec)  # a bad value is rejected by the build alone


def test_family_order_matches_generation():
    specs = [
        FamilySpec("path", (4,)),
        FamilySpec("cycle", (5,)),
        FamilySpec("complete", (6,)),
        FamilySpec("complete_bipartite", (2, 3)),
        FamilySpec("book", (3,)),
        FamilySpec("hypercube", (3,)),
        FamilySpec("random_tree", (7,), seed=1),
        FamilySpec("random_connected", (6, 2, 3), seed=1),
    ]
    for spec in specs:
        assert family_order(spec) == generate(spec).n


def test_spec_text_form():
    assert str(FamilySpec("book", (4,))) == "book:4"
    assert str(FamilySpec("complete_bipartite", (2, 3))) == "bipartite:2:3"
    assert (
        str(FamilySpec("random_connected", (8, 1, 3), seed=42))
        == "randconn:8:1/3:seed=42"
    )
