"""Immutable simple connected graphs with hop distances.

Vertices are dense integer ids ``0..n-1``. Edges get canonical ids: the
position of the ``(min, max)`` endpoint pair in the sorted edge tuple, stable
across runs. Disconnection after an edge removal is encoded as
:data:`INFINITE`, which compares strictly greater than (and unequal to) every
finite hop count.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import Iterable

from .errors import CapExceededError, DisconnectedGraphError, GraphError

INFINITE = math.inf


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
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._edge_ids = {e: i for i, e in enumerate(self.edges)}
        self._check_connected()

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_ids

    def edge_id(self, u: int, v: int) -> int:
        """Canonical id of edge ``{u, v}``."""
        try:
            return self._edge_ids[(u, v) if u < v else (v, u)]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}") from None

    def _check_connected(self) -> None:
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        reached = 1
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    reached += 1
                    queue.append(v)
        if reached != self.n:
            stranded = next(v for v in range(self.n) if not seen[v])
            raise DisconnectedGraphError(0, stranded)

    def distances_from(self, source: int, removed: int | None = None) -> list:
        """BFS hop distances from ``source``, optionally with one edge removed.

        Entries are ``INFINITE`` for vertices cut off when ``removed`` is a
        bridge; with no removal the graph is connected and all entries are
        finite integers.
        """
        if not 0 <= source < self.n:
            raise GraphError(f"vertex {source} out of range")
        skip_u = skip_v = -1
        if removed is not None:
            if not 0 <= removed < len(self.edges):
                raise GraphError(f"edge id {removed} out of range")
            skip_u, skip_v = self.edges[removed]
        dist: list = [INFINITE] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in self._adj[u]:
                if (u == skip_u and v == skip_v) or (u == skip_v and v == skip_u):
                    continue
                if dist[v] == INFINITE:
                    dist[v] = du + 1
                    queue.append(v)
        return dist

    @cached_property
    def distance_matrix(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances; symmetric with a zero diagonal."""
        return tuple(tuple(self.distances_from(v)) for v in range(self.n))

    def eccentricity(self, v: int) -> int:
        return max(self.distance_matrix[v])

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
