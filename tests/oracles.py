"""Independent brute-force oracles.

Everything here works on raw (n, edge-list) data with its own BFS and
exhaustive subset search, deliberately sharing no code with the package, so
the package's optimized paths can be checked against a second route.
"""

from collections import deque
from itertools import combinations

INF = float("inf")


def bfs_row(n, edges, source, banned=None):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        if banned is not None and {a, b} == set(banned):
            continue
        adj[a].append(b)
        adj[b].append(a)
    dist = [INF] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if dist[b] == INF:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


def distance_matrix(n, edges):
    return [bfs_row(n, edges, v) for v in range(n)]


def is_connected(n, edges):
    return all(d != INF for d in bfs_row(n, edges, 0))


def monitor_columns(n, edges):
    """monitor_columns[e] = set of vertices x whose distance row changes when
    edge e is removed; straight from the definition."""
    base = [bfs_row(n, edges, x) for x in range(n)]
    columns = []
    for e in edges:
        col = set()
        for x in range(n):
            if bfs_row(n, edges, x, banned=e) != base[x]:
                col.add(x)
        columns.append(col)
    return columns


def brute_dem(n, edges):
    """Minimum monitoring set size by increasing-size exhaustive search."""
    if not edges:
        return 0
    columns = monitor_columns(n, edges)
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if all(col & chosen for col in columns):
                return k
    raise AssertionError("no monitoring set found")


def brute_vertex_cover(n, edges):
    """Minimum vertex cover size by increasing-size exhaustive search."""
    if not edges:
        return 0
    for k in range(0, n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in edges):
                return k
    raise AssertionError("unreachable")


def _first_cover(n, pairs, resolves):
    """(size, subset) of the first vertex subset, by increasing size in
    combinations order, holding for every pair a vertex that resolves it."""
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            if all(any(resolves(p, x) for x in subset) for p in pairs):
                return k, subset
    raise AssertionError("no resolving set found")


def brute_metric_dimension(n, edges):
    """Metric dimension: some chosen x has d(x, u) != d(x, v) for every
    vertex pair u, v."""
    d = distance_matrix(n, edges)
    return _first_cover(
        n,
        list(combinations(range(n), 2)),
        lambda p, x: d[x][p[0]] != d[x][p[1]],
    )


def brute_edge_metric_dimension(n, edges):
    """Edge metric dimension: some chosen x is at different distances from
    the two edges of every edge pair, the distance from x to edge ab being
    min(d(x, a), d(x, b))."""
    d = distance_matrix(n, edges)
    to_edge = [[min(d[x][a], d[x][b]) for a, b in edges] for x in range(n)]
    return _first_cover(
        n,
        list(combinations(range(len(edges)), 2)),
        lambda p, x: to_edge[x][p[0]] != to_edge[x][p[1]],
    )


def brute_strong_metric_dimension(n, edges):
    """Strong metric dimension: for every vertex pair u, v some chosen x has
    u on a shortest x-v path or v on a shortest x-u path."""
    d = distance_matrix(n, edges)

    def resolves(p, x):
        u, v = p
        return d[x][v] == d[x][u] + d[u][v] or d[x][u] == d[x][v] + d[v][u]

    return _first_cover(n, list(combinations(range(n), 2)), resolves)


def connected_edge_subsets(n):
    """All labeled connected graphs on exactly n vertices, as edge lists."""
    all_edges = list(combinations(range(n), 2))
    out = []
    for r in range(n - 1, len(all_edges) + 1):
        for chosen in combinations(all_edges, r):
            if is_connected(n, chosen):
                out.append(list(chosen))
    return out


def base_graph(n, edges):
    """Strip degree-1 vertices, with their edges, until none is left (the
    base graph of Foucaud et al.). Returns (k, edges) on the survivors
    renumbered 0..k-1 in id order, or None when no edge survives, i.e. when
    the graph is a tree."""
    edges = [tuple(e) for e in edges]
    while True:
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        kept = [e for e in edges if degree[e[0]] > 1 and degree[e[1]] > 1]
        if len(kept) == len(edges):
            break
        edges = kept
    if not edges:
        return None
    alive = sorted({v for e in edges for v in e})
    new = {v: i for i, v in enumerate(alive)}
    return len(alive), [(new[a], new[b]) for a, b in edges]


def induced(edges, vertices):
    """Subgraph induced by ``vertices``, relabelled 0..k-1 in the given
    order: (k, sorted edge list with each pair as (low, high))."""
    pos = {v: i for i, v in enumerate(vertices)}
    kept = [
        tuple(sorted((pos[a], pos[b]))) for a, b in edges if a in pos and b in pos
    ]
    return len(pos), sorted(kept)


def factor_layers(n, edges):
    """Layers of the Cartesian prime factors, from the definitions: the
    classes of the transitive closure of Djokovic-Winkler Theta, tested pair
    by pair (xy ~ uv iff d(x,u) + d(y,v) != d(x,v) + d(y,u)), and tau (two
    edges at one vertex that lie on no chordless square together). Edges are
    numbered by their position in ``edges``. Each class, in the order of its
    lowest edge, gives a tuple of blocks: the vertex sets of the connected
    components of its edges, as masks in the order of their lowest vertex.
    () when there are fewer than two classes."""
    edges = [tuple(e) for e in edges]
    d = distance_matrix(n, edges)
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    label = list(range(len(edges)))

    def merge(i, j):
        old, new = label[i], label[j]
        if old != new:
            label[:] = [new if k == old else k for k in label]

    for i, (x, y) in enumerate(edges):
        for j, (u, v) in enumerate(edges):
            if d[x][u] + d[y][v] != d[x][v] + d[y][u]:
                merge(i, j)
            shared = {x, y} & {u, v}
            if i < j and shared:
                (c,) = shared
                (a,) = {x, y} - shared
                (b,) = {u, v} - shared
                on_square = b not in adj[a] and any(
                    w != c and w not in adj[c] for w in adj[a] & adj[b]
                )
                if not on_square:
                    merge(i, j)
    classes = {}
    for i, k in enumerate(label):
        classes.setdefault(k, []).append(edges[i])
    if len(classes) < 2:
        return ()
    partitions = []
    for class_edges in classes.values():
        blocks, seen = [], set()
        for start in sorted({v for e in class_edges for v in e}):
            if start in seen:
                continue
            block, stack = {start}, [start]
            while stack:
                a = stack.pop()
                for e in class_edges:
                    if a in e:
                        (b,) = set(e) - {a}
                        if b not in block:
                            block.add(b)
                            stack.append(b)
            seen |= block
            blocks.append(sum(1 << v for v in block))
        partitions.append(tuple(blocks))
    return tuple(partitions)
