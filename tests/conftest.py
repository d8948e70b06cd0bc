import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from demkit import FamilySpec, Graph, generate, graph


@pytest.fixture
def bfs_sources(monkeypatch):
    """The source of every ``Graph.levels_from`` call (one BFS each) made
    while the test runs, and ``"all"`` for each all-sources sweep (the BFS
    of every vertex at once, behind ``Graph.levels``), in call order."""
    calls = []
    bfs, sweep = Graph.levels_from, graph._sweep

    def counting(self, source):
        calls.append(source)
        return bfs(self, source)

    def sweeping(n, edges):
        calls.append("all")
        return sweep(n, edges)

    monkeypatch.setattr(Graph, "levels_from", counting)
    monkeypatch.setattr(graph, "_sweep", sweeping)
    return calls


def path(n):
    return generate(FamilySpec("path", (n,)))


def cycle(n):
    return generate(FamilySpec("cycle", (n,)))


def complete(n):
    return generate(FamilySpec("complete", (n,)))


def bipartite(m, n):
    return generate(FamilySpec("complete_bipartite", (m, n)))


def book(q):
    return generate(FamilySpec("book", (q,)))


def random_connected(n, num, den, seed):
    return generate(FamilySpec("random_connected", (n, num, den), seed))


def random_tree(n, seed):
    return generate(FamilySpec("random_tree", (n,), seed))


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
