"""Immutable simple connected graphs with hop distances.

Vertices are dense integer ids ``0..n-1``. Edges get canonical ids: the
position of the ``(min, max)`` endpoint pair in the sorted edge tuple, stable
across runs. Vertex and edge sets are bitmasks over these ids.

A level-synchronous BFS over the neighbour masks (``_levels``) takes the
next level as the OR of the frontier's neighbour masks less every vertex
already reached. It checks connectivity at construction and yields
:meth:`Graph.levels_from`; :meth:`Graph.distances_from` runs it on a copy of
the masks with the edge's two bits cleared when it removes one edge, and
encodes disconnection as :data:`INFINITE`, which compares strictly greater
than (and unequal to) every finite hop count. The levels of all sources
(:attr:`Graph.levels`) come from one sweep of every source at once
(``_sweep``), once per graph, and feed the distance matrix, the
eccentricities and the two sides of every edge (:attr:`Graph.sides`).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapExceededError, DisconnectedGraphError, GraphError

INFINITE = math.inf


def _levels(adj: Sequence[int], source: int) -> list[int]:
    """The level masks of a BFS from ``source`` over the neighbour masks
    ``adj``: entry d holds the vertices at distance d."""
    frontier = seen = 1 << source
    levels = [frontier]
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            return levels
        seen |= frontier
        levels.append(frontier)


def _sweep(n: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The level masks of a BFS from every vertex at once. A round ORs into
    each vertex v its neighbours' frontiers, the sources first reaching them
    in the last round, and keeps the sources not yet seen at v. Distances
    are symmetric, so those reaching v in round d are at distance d from v."""
    frontier = [1 << v for v in range(n)]
    unseen = [((1 << n) - 1) ^ f for f in frontier]
    levels = [[f] for f in frontier]
    while any(frontier):
        reached = [0] * n
        for u, v in edges:
            reached[u] |= frontier[v]
            reached[v] |= frontier[u]
        for v in range(n):
            reach = reached[v] = reached[v] & unseen[v]
            if reach:
                unseen[v] ^= reach
                levels[v].append(reach)
        frontier = reached
    return tuple(map(tuple, levels))


def _distances(levels: Iterable[int], n: int) -> list:
    """Hop distances read off level masks; ``INFINITE`` where no level
    reaches."""
    dist: list = [INFINITE] * n
    for d, level in enumerate(levels):
        while level:
            low = level & -level
            dist[low.bit_length() - 1] = d
            level ^= low
    return dist


class Graph:
    """Simple undirected connected graph on vertex ids ``0..n-1``.

    Instances are immutable after construction; every query is read-only, so
    a single graph can be shared freely across threads.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n <= 0:
            raise GraphError("graph must have at least one vertex")
        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        # each vertex's neighbours as a vertex mask
        self.neighbor_masks: tuple[int, ...] = tuple(adj)
        unreached = (1 << n) - 1 - sum(_levels(adj, 0))
        if unreached:
            raise DisconnectedGraphError(0, (unreached & -unreached).bit_length() - 1)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self.neighbor_masks[u] >> v & 1)

    def edge_id(self, u: int, v: int) -> int:
        """Canonical id of edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise GraphError(f"no edge between {u} and {v}")
        return (self.incident_masks[u] & self.incident_masks[v]).bit_length() - 1

    def distances_from(self, source: int, removed: int | None = None) -> list:
        """BFS hop distances from ``source``, optionally with one edge removed.

        Entries are ``INFINITE`` for vertices cut off when ``removed`` is a
        bridge; with no removal the graph is connected and all entries are
        finite integers.
        """
        if not 0 <= source < self.n:
            raise GraphError(f"vertex {source} out of range")
        adj: Sequence[int] = self.neighbor_masks
        if removed is not None:
            if not 0 <= removed < len(self.edges):
                raise GraphError(f"edge id {removed} out of range")
            u, v = self.edges[removed]
            adj = list(adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        return _distances(_levels(adj, source), self.n)

    @cached_property
    def incident_masks(self) -> tuple[int, ...]:
        """Each vertex's incident edges as an edge mask; the edge uv is the
        one bit of ``incident_masks[u] & incident_masks[v]``."""
        inc = [0] * self.n
        for eid, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << eid
            inc[v] |= 1 << eid
        return tuple(inc)

    def levels_from(self, source: int) -> tuple[int, ...]:
        """BFS levels from ``source``: entry d is the mask of the vertices at
        distance d, so the last index is the eccentricity of ``source``."""
        if not 0 <= source < self.n:
            raise GraphError(f"vertex {source} out of range")
        return tuple(_levels(self.neighbor_masks, source))

    @cached_property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """:meth:`levels_from` of every vertex, from one all-sources sweep."""
        return _sweep(self.n, self.edges)

    @cached_property
    def sides(self) -> tuple[tuple[int, int], ...]:
        """For each edge uv (u < v), in edge-id order, the masks of the
        vertices strictly closer to u than to v and to v than to u. x is
        closer to u iff d(x,v) - d(x,u) is 1 mod 3 (see ``monitoring``): three
        ANDs of the endpoints' levels folded mod 3 (disjoint, so summed)."""
        mod3 = [(sum(lv[::3]), sum(lv[1::3]), sum(lv[2::3])) for lv in self.levels]
        ends = ((mod3[u], mod3[v]) for u, v in self.edges)
        return tuple(
            ((a0 & b1) | (a1 & b2) | (a2 & b0), (b0 & a1) | (b1 & a2) | (b2 & a0))
            for (a0, a1, a2), (b0, b1, b2) in ends
        )

    @cached_property
    def distance_matrix(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances, read off :attr:`levels`; symmetric with a
        zero diagonal."""
        return tuple(tuple(_distances(levels, self.n)) for levels in self.levels)

    def eccentricity(self, v: int) -> int:
        return len(self.levels[v]) - 1

    def radius(self) -> int:
        """Smallest eccentricity over all vertices."""
        return min(self.eccentricity(v) for v in range(self.n))

    def is_tree(self) -> bool:
        # connectivity is a construction invariant, so the edge count decides
        return self.m == self.n - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text: str, *, max_n: int | None = None) -> Graph:
    """Parse ``"u v"`` lines into a Graph on vertices ``0..max_id``.

    ``#`` starts a comment; duplicate edges are merged. Raises
    :class:`GraphError` on loops, non-integer tokens, or an empty graph,
    :class:`CapExceededError` when ``max_id + 1`` exceeds ``max_n`` (checked
    before the graph is built) and :class:`DisconnectedGraphError` (with
    witness vertices) when the listed edges do not connect all vertices.
    """
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(
                f"line {lineno}: non-integer vertex id in {raw.strip()!r}"
            ) from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {raw.strip()!r}")
        if u == v:
            raise GraphError(f"line {lineno}: loop edge at vertex {u}")
        edges.append((u, v))
    if not edges:
        raise GraphError("empty graph: no edges given")
    n = max(max(u, v) for u, v in edges) + 1
    if max_n is not None and n > max_n:
        raise CapExceededError("edge list", n, max_n)
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Write a graph back out in the edge-list format, edges sorted."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)
