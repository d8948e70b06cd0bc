"""Distance-edge monitoring.

A probe x monitors edge e when removing e changes the distance from x to some
vertex y, i.e. e lies on every shortest x-y path. The monitoring number of a
graph is the smallest probe set under which every edge is monitored; it is
exactly the minimum hitting set of the per-edge monitor lists collected in
the monitor matrix.

What a probe monitors follows from one BFS. Call u a parent of v when u is a
neighbour of v with d(x,u) = d(x,v) - 1. Then x monitors edge uv, with
d(x,v) = d(x,u) + 1, iff u is the only parent of v. Proof: removing an edge
never shortens a distance, and the distances along a shortest path from x
rise by one per step. So an edge whose endpoints are equally far from x lies
on no shortest x-path, and its removal changes nothing. If v has a second
parent w, a shortest x-w path reaches no vertex farther than d(x,u), so it
avoids uv; followed by wv it replaces the prefix x..u,v of any shortest path
through uv at equal length, and no distance changes. If u is the only parent,
every shortest x-v path ends with uv, so d(x,v) grows when uv is removed.
So x monitors exactly one edge per vertex with a single parent.

The ``*_naive`` twins follow the definition instead: they re-run the
single-source distances with each edge removed in turn, and exist as the
independent oracle for the parent-count rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import hitting, products
from .errors import CapExceededError, GraphError
from .graph import Graph

DEFAULT_MAX_N = 24
DEFAULT_ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class MonitorMatrix:
    """Boolean incidence "vertex x monitors edge e" over V x E.

    ``rows[x]`` is a bitmask over edge ids, ``cols[e]`` a bitmask over vertex
    ids. Both endpoints of every edge always appear in its column: removing
    an edge strictly increases the distance between its endpoints.
    """

    n: int
    m: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def monitors(self, eid: int) -> tuple[int, ...]:
        """Vertices that monitor the given edge."""
        return tuple(hitting.bits(self.cols[eid]))

    def monitored(self, x: int) -> tuple[int, ...]:
        """Edge ids monitored by the given vertex."""
        return tuple(hitting.bits(self.rows[x]))

    def covers(self, vertices: Iterable[int]) -> bool:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return all(col & mask for col in self.cols)


def _validate_probes(g: Graph, probes: Iterable[int]) -> list[int]:
    out = sorted(set(probes))
    for x in out:
        if not 0 <= x < g.n:
            raise GraphError(f"probe vertex {x} out of range")
    return out


def monitored_pairs(g: Graph, probes: Iterable[int], eid: int) -> set[tuple[int, int]]:
    """All pairs (x, y), x a probe, whose distance changes when edge ``eid``
    is removed (becoming infinite counts as a change)."""
    if not 0 <= eid < g.m:
        raise GraphError(f"edge id {eid} out of range")
    pairs: set[tuple[int, int]] = set()
    for x in _validate_probes(g, probes):
        base = g.distances_from(x)
        cut = g.distances_from(x, removed=eid)
        pairs.update((x, y) for y in range(g.n) if base[y] != cut[y])
    return pairs


def _row(g: Graph, x: int, candidates: Iterable[int]) -> int:
    base = g.distances_from(x)
    row = 0
    for eid in candidates:
        if g.distances_from(x, removed=eid) != base:
            row |= 1 << eid
    return row


def _parent_row(g: Graph, dist: Sequence[int]) -> int:
    """Row of the probe with BFS distances ``dist`` by the parent-count rule:
    two edge passes."""
    parents = [0] * g.n
    for u, v in g.edges:
        if dist[u] != dist[v]:
            parents[u if dist[u] > dist[v] else v] += 1
    row = 0
    for eid, (u, v) in enumerate(g.edges):
        if dist[u] != dist[v] and parents[u if dist[u] > dist[v] else v] == 1:
            row |= 1 << eid
    return row


def monitored_edges(g: Graph, x: int) -> set[int]:
    """Edge ids monitored by vertex x (parent-count rule, one BFS)."""
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} out of range")
    return set(hitting.bits(_parent_row(g, g.distances_from(x))))


def monitored_edges_naive(g: Graph, x: int) -> set[int]:
    """Oracle twin of :func:`monitored_edges`: re-checks every edge."""
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} out of range")
    return set(hitting.bits(_row(g, x, range(g.m))))


def _matrix(g: Graph, rows: list[int]) -> MonitorMatrix:
    cols = [0] * g.m
    for x, row in enumerate(rows):
        for eid in hitting.bits(row):
            cols[eid] |= 1 << x
    return MonitorMatrix(g.n, g.m, tuple(rows), tuple(cols))


def monitor_matrix(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> MonitorMatrix:
    """Complete V x E monitoring incidence from the rows of
    ``g.distance_matrix``: one BFS per probe, shared with every other reader
    of the graph's distances (``products.factor_layers``)."""
    if g.n > max_n:
        raise CapExceededError("monitor matrix", g.n, max_n)
    return _matrix(g, [_parent_row(g, dist) for dist in g.distance_matrix])


def monitor_matrix_naive(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> MonitorMatrix:
    """Oracle twin of :func:`monitor_matrix` without candidate pruning."""
    if g.n > max_n:
        raise CapExceededError("monitor matrix", g.n, max_n)
    return _matrix(g, [_row(g, x, range(g.m)) for x in range(g.n)])


def is_dem_set(
    g: Graph, vertices: Iterable[int], matrix: MonitorMatrix | None = None
) -> bool:
    """True iff every edge is monitored by some vertex of the set."""
    probes = _validate_probes(g, vertices)
    if matrix is None:
        matrix = monitor_matrix(g, max_n=g.n)
    return matrix.covers(probes)


def greedy_dem(
    g: Graph, matrix: MonitorMatrix | None = None
) -> tuple[int, ...]:
    """Greedy monitoring set: ``hitting.greedy_hitting`` over the monitor
    columns, i.e. repeatedly the vertex monitoring the most uncovered edges
    (ties: lowest id). Valid, not necessarily minimum."""
    if matrix is None:
        matrix = monitor_matrix(g, max_n=g.n)
    return tuple(hitting.greedy_hitting(matrix.cols))


@dataclass(frozen=True)
class DemResult:
    """Exact monitoring number, one witness, the greedy seed and solver stats."""

    n: int
    m: int
    value: int
    witness: tuple[int, ...]
    all_minimum_sets: tuple[tuple[int, ...], ...] | None
    nodes_explored: int
    greedy: tuple[int, ...]

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n,
            "m": self.m,
            "dem": self.value,
            "witness": list(self.witness),
        }
        if self.all_minimum_sets is not None:
            doc["all_minimum_sets"] = [list(s) for s in self.all_minimum_sets]
        doc["nodes_explored"] = self.nodes_explored
        return doc


def _solve(
    g: Graph, max_n: int
) -> tuple[list[int], tuple[int, ...], tuple, int, int]:
    """The value stage shared by :func:`dem_value` and :func:`dem_number`:
    the monitor columns, reduced once for every solve that follows, the
    greedy seed, the factor layers, and the minimum value with the nodes its
    branch and bound explored."""
    matrix = monitor_matrix(g, max_n=max_n)
    greedy = greedy_dem(g, matrix)
    parts = products.factor_layers(g)
    cols = hitting.reduce_columns(matrix.cols)
    value, nodes = hitting.minimum_hitting_set(
        cols, upper=len(greedy), parts=parts
    )
    return cols, greedy, parts, value, nodes


def dem_value(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> int:
    """Exact monitoring number alone: the branch and bound of
    :func:`dem_number` without the witness walk, for callers that compare
    values only."""
    return _solve(g, max_n)[3]


def dem_number(
    g: Graph,
    enumerate_all: bool = False,
    *,
    max_n: int = DEFAULT_MAX_N,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> DemResult:
    """Exact minimum distance-edge-monitoring set.

    The witness is the lexicographically smallest minimum set; with
    ``enumerate_all`` every minimum set is listed (capped). Branch and bound
    over the hitting-set instance, seeded with the greedy monitoring set. The
    search and the witness also prune with the partition bound over the
    layers of the graph's Cartesian prime factors (``products.factor_layers``).
    The value comes from the same stage as :func:`dem_value`.
    """
    cols, greedy, parts, value, nodes = _solve(g, max_n)
    if enumerate_all:
        sets = hitting.enumerate_minimum_sets(cols, value, enumeration_cap)
        witness = sets[0]
    else:
        sets = None
        witness = hitting.lexicographically_smallest(cols, value, parts)
    return DemResult(g.n, g.m, value, witness, sets, nodes, greedy)
