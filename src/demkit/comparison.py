"""Three distance-based dimensions, solved by the covering engine.

Metric dimension (vertex pairs split by distance), edge metric dimension
(edge pairs split by vertex-edge distance), and strong metric dimension
(vertex pairs strongly resolved via shortest-path containment). Each is a
minimum hitting set with one column per pair, the mask of the vertices that
resolve it, so all three run through :mod:`demkit.hitting` like the
monitoring number does, under the same vertex cap. The witness is the
lexicographically smallest minimum set.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from . import hitting
from .errors import CapExceededError
from .graph import Graph
from .monitoring import DEFAULT_MAX_N, _validate_probes, dem_number


def _check_cap(g: Graph, max_n: int, what: str) -> None:
    if g.n > max_n:
        raise CapExceededError(what, g.n, max_n)


def _vertex_pairs(g: Graph) -> list[tuple[int, int]]:
    return list(combinations(range(g.n), 2))


def is_metric_generator(g: Graph, vertices: Iterable[int]) -> bool:
    s = _validate_probes(g, vertices)
    d = g.distance_matrix
    return all(
        any(d[u][x] != d[v][x] for x in s) for u, v in _vertex_pairs(g)
    )


def metric_dimension(
    g: Graph, *, max_n: int = DEFAULT_MAX_N
) -> tuple[int, tuple[int, ...]]:
    """Smallest set of vertices giving every vertex a distinct distance
    signature."""
    _check_cap(g, max_n, "metric dimension solver")
    d = g.distance_matrix
    columns = [
        sum(1 << x for x in range(g.n) if d[u][x] != d[v][x])
        for u, v in _vertex_pairs(g)
    ]
    return hitting.lexicographic_minimum(columns)


def _edge_distances(g: Graph) -> list[list[int]]:
    d = g.distance_matrix
    return [
        [min(d[u][x], d[v][x]) for x in range(g.n)] for u, v in g.edges
    ]


def is_edge_metric_generator(g: Graph, vertices: Iterable[int]) -> bool:
    s = _validate_probes(g, vertices)
    ed = _edge_distances(g)
    return all(
        any(ed[e1][x] != ed[e2][x] for x in s)
        for e1, e2 in combinations(range(g.m), 2)
    )


def edge_metric_dimension(
    g: Graph, *, max_n: int = DEFAULT_MAX_N
) -> tuple[int, tuple[int, ...]]:
    """Smallest set of vertices giving every edge a distinct distance
    signature (vertex-edge distance = nearer endpoint)."""
    _check_cap(g, max_n, "edge metric dimension solver")
    ed = _edge_distances(g)
    columns = [
        sum(1 << x for x in range(g.n) if row1[x] != row2[x])
        for row1, row2 in combinations(ed, 2)
    ]
    return hitting.lexicographic_minimum(columns)


def _strongly_resolves(d, u: int, v: int, x: int) -> bool:
    # v on a shortest u-x path, or u on a shortest v-x path
    return d[u][x] == d[u][v] + d[v][x] or d[v][x] == d[v][u] + d[u][x]


def is_strong_resolving_set(g: Graph, vertices: Iterable[int]) -> bool:
    s = _validate_probes(g, vertices)
    d = g.distance_matrix
    return all(
        any(_strongly_resolves(d, u, v, x) for x in s)
        for u, v in _vertex_pairs(g)
    )


def strong_metric_dimension(
    g: Graph, *, max_n: int = DEFAULT_MAX_N
) -> tuple[int, tuple[int, ...]]:
    """Smallest set strongly resolving every vertex pair."""
    _check_cap(g, max_n, "strong metric dimension solver")
    d = g.distance_matrix
    columns = [
        sum(1 << x for x in range(g.n) if _strongly_resolves(d, u, v, x))
        for u, v in _vertex_pairs(g)
    ]
    return hitting.lexicographic_minimum(columns)


class ComparisonReport(NamedTuple):
    """All four distance parameters of one graph, each with the
    lexicographically smallest minimum set the solver found."""

    name: str
    n: int
    m: int
    dem: int
    dem_witness: tuple[int, ...]
    dim: int
    dim_witness: tuple[int, ...]
    edim: int
    edim_witness: tuple[int, ...]
    dim_s: int
    dim_s_witness: tuple[int, ...]


def compare_graph(
    g: Graph,
    name: str = "graph",
    *,
    max_n: int = DEFAULT_MAX_N,
) -> ComparisonReport:
    dem = dem_number(g, max_n=max_n)
    dim, dim_w = metric_dimension(g, max_n=max_n)
    edim, edim_w = edge_metric_dimension(g, max_n=max_n)
    dim_s, dim_s_w = strong_metric_dimension(g, max_n=max_n)
    return ComparisonReport(
        name, g.n, g.m,
        dem.value, dem.witness,
        dim, dim_w,
        edim, edim_w,
        dim_s, dim_s_w,
    )
