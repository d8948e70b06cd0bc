"""Definition-level check of reported monitoring sets.

Shares no code with demkit: a probe x monitors edge e when deleting e changes
the hop distance from x to some vertex, so for every edge this reruns BFS
from every probe with the edge deleted. The same BFS is the benchmark's
connectivity test for the graphs it draws and its calibration task
(clock.py).
"""

from __future__ import annotations

from collections import deque


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], source: int, cut: tuple[int, int] | None = None) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if cut is not None and (u, v) in (cut, cut[::-1]):
                continue
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_connected(n: int, edges) -> bool:
    return n >= 1 and min(bfs(adjacency(n, edges), 0)) >= 0


def witness_error(n: int, edges, value: int, witness) -> str | None:
    """None when ``witness`` has ``value`` distinct vertices and monitors
    every edge; otherwise what is wrong with it."""
    probes = sorted(set(witness))
    if len(probes) != len(witness) or len(probes) != value:
        return f"witness {list(witness)} does not have {value} distinct vertices"
    if any(not 0 <= x < n for x in probes):
        return f"witness {list(witness)} names a vertex outside 0..{n - 1}"
    adj = adjacency(n, edges)
    base = {x: bfs(adj, x) for x in probes}
    for u, v in edges:
        if all(bfs(adj, x, (u, v)) == base[x] for x in probes):
            return f"edge ({u}, {v}) is monitored by no vertex of {list(witness)}"
    return None
