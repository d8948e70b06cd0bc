"""The four binary graph operations: join, corona, cluster, Cartesian product.

Each constructor returns ``(Graph, ProductVertexMap)``; the map records where
every product vertex came from so tests and reports can address factor copies
and layers by structure instead of raw ids.

:func:`factor_layers` goes the other way for the Cartesian product: it finds
the layers of the prime factors of a plain graph, with no expression to read
them from, as one vertex -> layer table per factor.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GraphError
from .graph import Graph

# origin tags: "G" = left-factor / spine vertex, "H" = vertex of an H copy,
# "GH" = Cartesian pair (copy = left index i, index = right index j)
Origin = tuple[str, int, int]


class ProductVertexMap(NamedTuple):
    """Bijection between product vertex ids and their factor coordinates."""

    operation: str
    g_order: int
    h_order: int
    origins: tuple[Origin, ...]

    def vertex(self, tag: str, copy: int, index: int) -> int:
        try:
            return self.origins.index((tag, copy, index))
        except ValueError:
            raise GraphError(f"no product vertex with origin {(tag, copy, index)}") from None

    # Cartesian accessors -------------------------------------------------

    def pair(self, pid: int) -> tuple[int, int]:
        """Factor coordinates (i, j) of a Cartesian product vertex."""
        tag, i, j = self.origins[pid]
        if tag != "GH":
            raise GraphError("pair() applies to Cartesian products only")
        return i, j

    def vertex_at(self, i: int, j: int) -> int:
        return self.vertex("GH", i, j)

    def g_layer(self, j: int) -> tuple[int, ...]:
        """Vertices with right index j; the induced subgraph is a copy of G."""
        if self.operation != "cartesian":
            raise GraphError("g_layer() applies to Cartesian products only")
        return tuple(i * self.h_order + j for i in range(self.g_order))

    def h_layer(self, i: int) -> tuple[int, ...]:
        """Vertices with left index i; the induced subgraph is a copy of H."""
        if self.operation != "cartesian":
            raise GraphError("h_layer() applies to Cartesian products only")
        return tuple(i * self.h_order + j for j in range(self.h_order))

    # join / corona / cluster accessors -----------------------------------

    def g_vertices(self) -> tuple[int, ...]:
        """Left-factor vertices (for cluster: the roots, identified with G)."""
        if self.operation in ("join", "corona", "cluster"):
            return tuple(range(self.g_order))
        raise GraphError(f"g_vertices() not defined for {self.operation}")

    def h_copy(self, i: int) -> tuple[int, ...]:
        """Vertices of the i-th copy of H, ordered by their H index."""
        out = [
            pid
            for pid, (tag, copy, _) in enumerate(self.origins)
            if tag == "H" and copy == i
        ]
        out.sort(key=lambda pid: self.origins[pid][2])
        return tuple(out)


def join(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Disjoint union of g and h plus every cross edge."""
    m, n = g.n, h.n
    edges = list(g.edges)
    edges += [(m + u, m + v) for u, v in h.edges]
    edges += [(i, m + j) for i in range(m) for j in range(n)]
    origins = [("G", 0, i) for i in range(m)] + [("H", 0, j) for j in range(n)]
    return Graph(m + n, edges), ProductVertexMap("join", m, n, tuple(origins))


def corona(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """One copy of g; the i-th vertex of g joined to all of the i-th h copy."""
    m, n = g.n, h.n
    edges = list(g.edges)
    origins: list[Origin] = [("G", 0, i) for i in range(m)]
    for i in range(m):
        base = m + i * n
        edges += [(base + u, base + v) for u, v in h.edges]
        edges += [(i, base + j) for j in range(n)]
        origins += [("H", i, j) for j in range(n)]
    return Graph(m + m * n, edges), ProductVertexMap("corona", m, n, tuple(origins))


def cluster(g: Graph, h: Graph, root: int = 0) -> tuple[Graph, ProductVertexMap]:
    """Rooted product: the root of the i-th h copy is identified with vertex i
    of g. Product ids 0..m-1 are the roots (= the g vertices)."""
    m, n = g.n, h.n
    if not 0 <= root < n:
        raise GraphError(f"root {root} out of range for the rooted factor")
    others = [j for j in range(n) if j != root]
    edges = list(g.edges)
    origins: list[Origin] = [("H", i, root) for i in range(m)]
    for i in range(m):
        base = m + i * (n - 1)
        ids = {root: i}
        for k, j in enumerate(others):
            ids[j] = base + k
        edges += [(ids[u], ids[v]) for u, v in h.edges]
    for i in range(m):
        origins += [("H", i, j) for j in others]
    return Graph(m * n, edges), ProductVertexMap("cluster", m, n, tuple(origins))


def cartesian(g: Graph, h: Graph) -> tuple[Graph, ProductVertexMap]:
    """Cartesian product: vertex (i, j) has id i*|V(h)| + j; edges move in
    exactly one coordinate."""
    m, n = g.n, h.n
    edges = []
    for i in range(m):
        edges += [(i * n + u, i * n + v) for u, v in h.edges]
    for u, v in g.edges:
        edges += [(u * n + j, v * n + j) for j in range(n)]
    origins = tuple(("GH", i, j) for i in range(m) for j in range(n))
    return Graph(m * n, edges), ProductVertexMap("cartesian", m, n, origins)


def _on_chordless_squares(g: Graph, adj: tuple[int, ...]) -> bool:
    """True iff every edge lies on a chordless 4-cycle, as every edge of a
    product of two nontrivial connected graphs does: edge (a,h)(b,h) lies on
    (a,h)(b,h)(b,k)(a,k) for any neighbour k of h. ``adj`` holds each
    vertex's neighbours as a mask."""
    for u, v in g.edges:
        near_u = adj[u] & ~adj[v] & ~(1 << v)  # a square's third vertex
        near_v = adj[v] & ~adj[u] & ~(1 << u)  # and its fourth
        while near_u:
            low = near_u & -near_u
            if adj[low.bit_length() - 1] & near_v:
                break
            near_u ^= low
        else:
            return False
    return True


def _cut(inc: tuple[int, ...], vertices: int) -> int:
    """Edges with exactly one end in the vertex mask: the XOR of the
    incident-edge masks ``inc`` of its vertices."""
    out = 0
    while vertices:
        low = vertices & -vertices
        out ^= inc[low.bit_length() - 1]
        vertices ^= low
    return out


def factor_layers(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The layers of each Cartesian prime factor of g, one partition per
    factor, each a table of n block masks: entry v is the layer holding v,
    or 0 if no edge of that factor meets v.

    The edge classes of the prime factors are the transitive closure of two
    relations (Feder 1992; Imrich and Peterin, "Recognizing Cartesian
    products in linear time", Discrete Math. 2007): Djokovic-Winkler Theta,
    xy ~ uv iff d(x,u) + d(y,v) != d(x,v) + d(y,u), and tau, two edges at
    one vertex that lie on no chordless square together. Each class, in the
    order of its lowest edge, gives one partition, its blocks the connected
    components of the class's edges: the copies of that factor.

    Theta is computed in groups, with no test of edge pairs. With
    ``a(w) = d(x,w) - d(y,w)``, which is -1, 0 or 1 for an edge xy, the
    relation reads ``a(u) != a(v)``: the edges Theta-related to xy are those
    cut by ``near_x = {w : a(w) = -1}`` or by ``near_y = {w : a(w) = 1}``,
    the two sides of xy (``Graph.sides``). Every copy of a factor edge has
    the same two sets, so a product computes about one cut per factor edge.
    Tau is read off the neighbour masks: at an end a of xy, with b the
    other end, an edge az joins the class when no neighbour of z lies in
    N(b) outside N[a]. Only unclassed edges az that Theta leaves out are
    tested: one already classed would have drawn xy into its class. No such
    z is a neighbour of b: then d(z, a) = d(z, b) = 1, so a's side of xy
    holds a but not z, cuts az, and Theta relates az to xy. Each class
    closes by one search over edge masks.

    Returns ``()`` for a prime graph (as soon as the first class holds every
    edge), and for a graph with an edge on no chordless square without
    computing a distance.
    """
    adj = g.neighbor_masks
    if g.m == 0 or not _on_chordless_squares(g, adj):
        return ()
    edges, sides, inc = g.edges, g.sides, g.incident_masks
    cuts: dict[tuple[int, int], int] = {}
    partitions = []
    unclassed = full = (1 << len(edges)) - 1
    while unclassed:  # one class per pass
        closed = frontier = unclassed & -unclassed
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            x, y = edges[low.bit_length() - 1]
            near_x, near_y = sides[low.bit_length() - 1]
            related = cuts.get((near_x, near_y))
            if related is None:
                related = cuts[near_x, near_y] = _cut(inc, near_x) | _cut(inc, near_y)
            for a, b in (x, y), (y, x):  # tau: az on no chordless a b w z
                far = adj[b] & ~adj[a] & ~(1 << a)  # the candidates for w
                around = inc[a] & unclassed & ~(closed | related)
                while around:
                    e = around & -around
                    around ^= e
                    z = sum(edges[e.bit_length() - 1]) - a  # the other end
                    # z is no neighbour of b: a's side of xy cuts such an az
                    if not adj[z] & far:
                        related |= e
            frontier |= related & ~closed
            closed |= related
            if closed == full:
                return ()
        unclassed &= ~closed
        along = [0] * g.n  # each vertex's neighbours by an edge of the class
        while closed:
            low = closed & -closed
            closed ^= low
            x, y = edges[low.bit_length() - 1]
            along[x] |= 1 << y
            along[y] |= 1 << x
        table = [0] * g.n
        for v, near in enumerate(along):
            if near and not table[v]:
                block, todo, members = 0, 1 << v, []
                while todo:  # grow the block along the class
                    low = todo & -todo
                    block |= low
                    members.append(low.bit_length() - 1)
                    todo = (todo | along[members[-1]]) & ~block
                for u in members:
                    table[u] = block
        partitions.append(tuple(table))
    return tuple(partitions)
