"""Generators for the named graph families.

``FAMILIES`` is the one table of families: for each kind it gives the short
token of the expression grammar, the number of integer parameters, whether a
seed is needed, the generator and the vertex count. Deterministic kinds
(paths, cycles, complete and complete bipartite graphs, books, hypercubes)
take integer parameters only; the random kinds (uniform labeled trees,
connected Erdos-Renyi samples) also need a seed and are reproducible from it.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, NamedTuple

from .errors import DisconnectedGraphError, GenerationError
from .graph import Graph

RANDOM_CONNECTED_MAX_TRIES = 1000


class FamilySpec(NamedTuple):
    """Declarative description of one generated graph."""

    kind: str
    params: tuple[int, ...] = ()
    seed: int | None = None

    def __str__(self) -> str:
        family = FAMILIES.get(self.kind)
        parts = [family.token if family else self.kind]
        if self.kind == "random_connected" and len(self.params) == 3:
            n, num, den = self.params
            parts += [str(n), f"{num}/{den}"]
        else:
            parts += [str(p) for p in self.params]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return ":".join(parts)


def path(n: int) -> Graph:
    if n < 1:
        raise GenerationError("path order must be >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GenerationError("cycle order must be >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GenerationError("complete-graph order must be >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GenerationError("bipartite part sizes must be >= 1")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def book(q: int) -> Graph:
    """Book with q pages: q triangles sharing the common edge (0, 1)."""
    if q < 1:
        raise GenerationError("book page count must be >= 1")
    edges = [(0, 1)]
    for p in range(2, q + 2):
        edges += [(0, p), (1, p)]
    return Graph(q + 2, edges)


def hypercube(d: int) -> Graph:
    if d < 1:
        raise GenerationError("hypercube dimension must be >= 1")
    n = 1 << d
    edges = []
    for x in range(n):
        for bit in range(d):
            y = x ^ (1 << bit)
            if x < y:
                edges.append((x, y))
    return Graph(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree via a random Prufer sequence."""
    if n < 1:
        raise GenerationError("tree order must be >= 1")
    if n <= 2:
        return path(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_connected(n: int, p_num: int, p_den: int, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p) sample, rejected until connected (bounded retries)."""
    if n < 1:
        raise GenerationError("order must be >= 1")
    if p_den < 1 or p_num < 0 or p_num > p_den:
        raise GenerationError(f"edge probability {p_num}/{p_den} not in [0, 1]")
    p = p_num / p_den
    for _ in range(RANDOM_CONNECTED_MAX_TRIES):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        try:
            return Graph(n, edges)
        except DisconnectedGraphError:
            pass
    raise GenerationError(
        f"no connected sample of G({n}, {p_num}/{p_den}) "
        f"in {RANDOM_CONNECTED_MAX_TRIES} tries"
    )


class Family(NamedTuple):
    """One row of the family table."""

    token: str  # short name in expressions and canonical text
    arity: int  # integer parameters; a probability num/den counts as two
    seeded: bool
    make: Callable[..., Graph]  # params (and a seeded rng) -> graph
    order: Callable[..., int]  # params -> vertex count, without building


FAMILIES = {
    "path": Family("path", 1, False, path, lambda n: n),
    "cycle": Family("cycle", 1, False, cycle, lambda n: n),
    "complete": Family("complete", 1, False, complete, lambda n: n),
    "complete_bipartite": Family(
        "bipartite", 2, False, complete_bipartite, lambda m, n: m + n
    ),
    "book": Family("book", 1, False, book, lambda q: q + 2),
    # the order saturates at 2^16384, above any cap parsed from text (at most
    # 4,300 digits), so sizing costs the same for every d; the build rejects d < 1
    "hypercube": Family(
        "hypercube", 1, False, hypercube, lambda d: 1 << min(max(d, 0), 16_384)
    ),
    "random_tree": Family("randtree", 1, True, random_tree, lambda n: n),
    "random_connected": Family(
        "randconn", 3, True, random_connected, lambda n, num, den: n
    ),
}

# every accepted spelling of a kind: its full name and its short token
KIND_OF_TOKEN = {
    name: kind for kind, family in FAMILIES.items() for name in (kind, family.token)
}


def _family(spec: FamilySpec) -> Family:
    """The table row of ``spec``, once its parameter count and seed fit it."""
    family = FAMILIES.get(spec.kind)
    if family is None:
        raise GenerationError(f"unknown family kind {spec.kind!r}")
    if len(spec.params) != family.arity:
        raise GenerationError(
            f"{spec.kind} expects {family.arity} integer parameter(s), got {spec.params}"
        )
    if family.seeded and spec.seed is None:
        raise GenerationError(f"{spec.kind} requires a seed")
    if not family.seeded and spec.seed is not None:
        raise GenerationError(f"{spec.kind} takes no seed")
    return family


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical graph described by ``spec``."""
    family = _family(spec)
    if family.seeded:
        return family.make(*spec.params, random.Random(spec.seed))
    return family.make(*spec.params)


def family_order(spec: FamilySpec) -> int:
    """Vertex count of the generated graph, without generating it."""
    return _family(spec).order(*spec.params)
