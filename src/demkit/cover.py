"""Exact minimum vertex cover.

Vertex cover is the hitting-set instance whose columns are the edge endpoint
pairs, solved by the shared engine of :mod:`demkit.hitting` like every other
exact value: its branch and bound for the size, its lexicographic walk for
the witness.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import hitting
from .errors import CapExceededError, GraphError
from .graph import Graph
from .monitoring import DEFAULT_MAX_N


class CoverResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def is_vertex_cover(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every edge of g has an endpoint in ``vertices``."""
    s = set(vertices)
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    return all(u in s or v in s for u, v in g.edges)


def vertex_cover_number(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> CoverResult:
    """Exact minimum vertex cover; the witness is the lexicographically
    smallest minimum cover."""
    if g.n > max_n:
        raise CapExceededError("vertex cover solver", g.n, max_n)
    if g.m == 0:
        return CoverResult(0, ())
    columns = [(1 << u) | (1 << v) for u, v in g.edges]
    return CoverResult(*hitting.lexicographic_minimum(columns))
